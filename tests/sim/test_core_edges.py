"""Kernel edge cases: condition failures, interrupts vs resources, timing."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
)


def test_all_of_fails_if_member_fails():
    sim = Simulator()
    ok = sim.timeout(5)
    bad = sim.event()
    caught = []

    def waiter():
        try:
            yield AllOf(sim, (ok, bad))
        except RuntimeError as e:
            caught.append((str(e), sim.now))

    def failer():
        yield sim.timeout(2)
        bad.fail(RuntimeError("member died"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == [("member died", 2)]


def test_any_of_failure_propagates():
    sim = Simulator()
    slow = sim.timeout(100)
    bad = sim.event()
    caught = []

    def waiter():
        try:
            yield AnyOf(sim, (slow, bad))
        except ValueError:
            caught.append(sim.now)

    def failer():
        yield sim.timeout(1)
        bad.fail(ValueError())

    sim.process(waiter())
    sim.process(failer())
    sim.run(until=10)
    assert caught == [1]


def test_condition_rejects_cross_simulator_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        AllOf(sim1, (sim1.timeout(1), sim2.timeout(1)))


def test_interrupt_while_holding_resource_releases_via_finally():
    sim = Simulator()
    res = Resource(sim, 1)
    order = []

    def holder():
        req = res.request()
        try:
            yield req
            order.append("held")
            yield sim.timeout(100)
        except Interrupt:
            order.append("interrupted")
        finally:
            res.release(req)

    def contender():
        yield sim.timeout(2)
        with res.request() as req:
            yield req
            order.append(("acquired", sim.now))

    p = sim.process(holder())

    def attacker():
        yield sim.timeout(1)
        p.interrupt()

    sim.process(attacker())
    sim.process(contender())
    sim.run()
    assert order == ["held", "interrupted", ("acquired", 2)]


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def quick():
        yield sim.timeout(3)

    p = sim.process(quick())
    assert not p.triggered
    sim.run()
    assert p.triggered
    assert p._ok


def test_multiple_interrupts_queue():
    sim = Simulator()
    causes = []

    def victim():
        for _ in range(2):
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                causes.append(i.cause)

    p = sim.process(victim())

    def attacker():
        yield sim.timeout(1)
        p.interrupt("first")
        p.interrupt("second")

    sim.process(attacker())
    sim.run(until=50)
    assert causes == ["first", "second"]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_timeout_ordering_is_stable_for_equal_times():
    sim = Simulator()
    order = []

    def w(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    for tag in "abcd":
        sim.process(w(tag, 1.0))
    sim.run()
    assert order == list("abcd")


def test_run_until_event_failure_propagates():
    sim = Simulator(strict=False)

    def boom():
        yield sim.timeout(1)
        raise RuntimeError("until-event failed")

    proc = sim.process(boom())
    with pytest.raises(RuntimeError, match="until-event failed"):
        sim.run(until=proc)
    assert sim.now == 1


def test_interrupt_before_first_step_kills_cleanly():
    # Interrupting a freshly spawned process before the kernel has run
    # its first step kills it without ever entering the body: a throw
    # would surface at the generator's first line (outside any try), so
    # the kernel closes the generator and completes the process with
    # ``None`` instead of crashing the init bootstrap.
    sim = Simulator()
    log = []

    def victim():
        log.append("started")
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            log.append(("interrupted", i.cause))

    p = sim.process(victim())
    p.interrupt("early")
    sim.run()
    assert log == []
    assert p.triggered and p._ok and p.value is None


def test_peek_and_idle_deadline_advance():
    sim = Simulator()
    sim.timeout(10)
    assert sim.peek() == 10  # staged (pre-merge) events are visible
    sim.run(until=3.0)       # idle gap: no events before the deadline
    assert sim.now == 3.0
    assert sim.peek() == 10
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert sim.peek() == float("inf")


def test_same_time_lane_fifo_vs_heap_tiebreak():
    # Events scheduled *for now* ride the FIFO lane; events popped from
    # the heap at equal times tie-break by creation id. Both orders must
    # agree: strictly creation order within one instant.
    sim = Simulator()
    order = []

    def waker(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    for k in range(4):                      # heap path: equal future times
        sim.process(waker(f"heap{k}", 5.0))

    def now_burst():
        yield sim.timeout(5.0)
        for k in range(4):                  # lane path: same-instant wakeups
            sim.process(waker(f"lane{k}", 0.0))

    sim.process(now_burst())
    sim.run()
    assert order == [f"heap{k}" for k in range(4)] + \
        [f"lane{k}" for k in range(4)]


def test_condition_detaches_and_drops_refs_on_completion():
    sim = Simulator()
    fast = sim.timeout(1)
    slow = sim.timeout(1000)
    cond = AnyOf(sim, (fast, slow))
    assert cond.events == (fast, slow)
    sim.run(until=2.0)
    assert cond.triggered and fast in cond.value
    # The straggler no longer holds the condition's callback, and the
    # condition no longer pins its constituents.
    assert cond.events == ()
    assert not any(cb.__self__ is cond
                   for cb in (slow.callbacks or [])
                   if hasattr(cb, "__self__"))
