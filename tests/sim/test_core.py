"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(1.5)
        done.append(sim.now)
        yield sim.timeout(0.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [1.5, 2.0]


def test_timeout_value_passed_to_process():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="tick")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["tick"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_zero_delay_fires_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(0)
        order.append(tag)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.process(proc("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_resumes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield sim.timeout(3)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1)
        ev.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_propagates_in_strict_mode():
    sim = Simulator(strict=True)

    def bad():
        yield sim.timeout(1)
        raise ValueError("kaput")

    sim.process(bad())
    with pytest.raises(ValueError, match="kaput"):
        sim.run()


def test_nonstrict_mode_records_failure_on_process_event():
    sim = Simulator(strict=False)

    def bad():
        yield sim.timeout(1)
        raise ValueError("kaput")

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc._ok
    assert isinstance(proc.value, ValueError)


def test_process_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return "result"

    def outer(results):
        value = yield sim.process(inner())
        results.append(value)

    results = []
    sim.process(outer(results))
    sim.run()
    assert results == ["result"]


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)
        return 99

    p = sim.process(proc())
    assert sim.run(until=p) == 99
    assert sim.now == 5


def test_run_until_timeout_event_waits_for_fire():
    sim = Simulator()
    sim.run(until=sim.timeout(7))
    assert sim.now == 7


def test_run_until_deadline_stops_clock_exactly():
    sim = Simulator()
    ticks = []

    def clock():
        while True:
            yield sim.timeout(1)
            ticks.append(sim.now)

    sim.process(clock())
    sim.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert sim.now == 3.5


def test_run_until_past_deadline_rejected():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_run_until_event_starved_schedule_is_error():
    sim = Simulator()
    ev = sim.event()  # nobody will ever trigger it
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_yield_non_event_fails_process():
    sim = Simulator(strict=False)

    def bad():
        yield 42  # type: ignore[misc]

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc._ok
    assert isinstance(proc.value, SimulationError)


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def proc():
        yield sim.timeout(1)  # ensure ev is processed by now
        got.append((yield ev))
        got.append(sim.now)

    sim.process(proc())
    sim.run()
    assert got == ["early", 1]


def test_interrupt_raises_in_process():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            seen.append((i.cause, sim.now))

    def attacker(p):
        yield sim.timeout(2)
        p.interrupt("die")

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert seen == [("die", 2)]


def test_interrupt_then_original_event_does_not_double_resume():
    sim = Simulator()
    resumed = []

    def victim():
        try:
            yield sim.timeout(5)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
            yield sim.timeout(100)
            resumed.append("after")

    def attacker(p):
        yield sim.timeout(1)
        p.interrupt()

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run(until=50)
    assert resumed == ["interrupt"]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.process(quick())
    sim.run()
    p.interrupt()  # must not raise
    sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done = []

    def proc():
        t1, t2 = sim.timeout(2, "a"), sim.timeout(5, "b")
        result = yield AllOf(sim, (t1, t2))
        done.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert done == [(5, ["a", "b"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    done = []

    def proc():
        t1, t2 = sim.timeout(2, "fast"), sim.timeout(5, "slow")
        yield AnyOf(sim, (t1, t2))
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [2]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = []

    def proc():
        yield AllOf(sim, ())
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0]


def test_determinism_same_seed_same_trace():
    def build():
        sim = Simulator()
        trace = []

        def worker(k):
            for i in range(3):
                yield sim.timeout(0.5 * (k + 1))
                trace.append((round(sim.now, 6), k, i))

        for k in range(4):
            sim.process(worker(k))
        sim.run()
        return trace

    assert build() == build()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4)
    assert sim.peek() == 0 or sim.peek() == 4  # init-free timeout queues at 4
    sim.run()
    assert sim.peek() == float("inf")
