"""The shield and the gather (``Node.shielded`` / ``Node.gather``).

A child's failure travels to its parent as the child process's *value* —
an :class:`~repro.sim.Outcome` — because an exception that leaves a process
aborts a ``strict`` run; the parent re-raises what it does not handle, in
its own process, so nothing is hidden either.

The hand-rolled loop every fan-out site carried until the gather replaced
it is kept here as :func:`reference_fanout`, and hypothesis-generated
fan-outs are replayed through both: every child step and every parent
resume must happen at the same simulated instant *with the same
creation-id counter* — a shield is a pure ``yield from`` delegation, so a
gathered fan-out takes exactly the lane slots the loop took.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Cluster, Interrupt, Outcome

TICK = 2.0 ** -10


def build(strict=True):
    cluster = Cluster(seed=0, strict=strict)
    return cluster, cluster.add_node("n")


def child(sim, delay, value=None, error=None):
    yield sim.timeout(delay)
    if error is not None:
        raise error
    return value


# -- outcomes -----------------------------------------------------------------
def test_outcomes_come_back_in_call_order_not_finish_order():
    cluster, node = build()
    sim = cluster.sim
    finished = []

    def logged(delay, value):
        result = yield from child(sim, delay, value)
        finished.append(result)
        return result

    def parent():
        return (yield from node.gather(
            logged(d, v) for d, v in ((0.3, "slow"), (0.1, "fast"),
                                      (0.2, "mid"))))

    outcomes = sim.run(until=node.spawn(parent()))
    assert finished == ["fast", "mid", "slow"]
    assert [o.value for o in outcomes] == ["slow", "fast", "mid"]
    assert all(isinstance(o, Outcome) and o.error is None for o in outcomes)


def test_parent_resumes_when_the_last_child_settles_not_at_the_first_failure():
    """No straggler: a child that fails fast releases nobody — the parent
    waits out the slowest sibling, then sees every outcome."""
    cluster, node = build()
    sim = cluster.sim
    boom = ValueError("fast failure")

    def parent():
        outcomes = yield from node.gather([child(sim, 0.1, error=boom),
                                           child(sim, 0.5, "slow"),
                                           child(sim, 0.3, "mid")])
        return sim.now, outcomes

    resumed_at, outcomes = sim.run(until=node.spawn(parent()))
    assert resumed_at == pytest.approx(0.5)
    assert outcomes[0].error is boom
    assert [o.value for o in outcomes[1:]] == ["slow", "mid"]
    with pytest.raises(ValueError):
        outcomes[0].result()
    assert outcomes[1].result() == "slow"


def test_empty_gather_returns_at_once():
    cluster, node = build()

    def parent():
        return cluster.sim.now, (yield from node.gather([]))

    assert cluster.sim.run(until=node.spawn(parent())) == (0.0, [])


def test_names_are_one_for_all_or_one_per_child():
    cluster, node = build()
    sim = cluster.sim
    before = len(node._procs)

    def parent():
        yield from node.gather([child(sim, 0.1), child(sim, 0.1)], "worker")
        yield from node.gather([child(sim, 0.1), child(sim, 0.1)],
                               ["left", "right"])

    sim.run(until=node.spawn(parent()))
    assert [p.name for p in node._procs[before + 1:]] == \
        ["worker", "worker", "left", "right"]
    with pytest.raises(ValueError):
        sim.run(until=node.spawn(node.gather([child(sim, 0.1)], [])))


# -- nothing escapes, nothing is hidden ---------------------------------------
def test_node_crash_settles_every_child_with_interrupt_and_nothing_escapes():
    cluster, node = build()
    sim = cluster.sim
    seen, kids = [], []

    def parent():
        try:
            yield from node.gather((child(sim, 1.0, i) for i in range(3)),
                                   "kid")
        except Interrupt as exc:
            seen.append(exc.cause)

    def crasher():
        yield sim.timeout(0.4)
        kids.extend(p for p in node._procs if p.name == "kid")
        node.crash()

    node.spawn(parent())
    cluster.add_node("other").spawn(crasher())
    sim.run()                   # strict: an escaping Interrupt would raise
    assert seen == ["node-crash"]
    assert len(kids) == 3
    for kid in kids:
        assert kid.triggered and kid._ok
        assert isinstance(kid.value.error, Interrupt)
        assert kid.value.error.cause == "node-crash"


def test_unhandled_outcome_reraised_by_the_parent_still_aborts_a_strict_run():
    """The shield hides nothing: what the caller does not handle it
    re-raises in its own process, and that is as loud as ever."""
    cluster, node = build()
    sim = cluster.sim

    def parent():
        outcomes = yield from node.gather(
            [child(sim, 0.1, error=KeyError("bug")), child(sim, 0.2, "ok")])
        return [o.result() for o in outcomes]

    node.spawn(parent())
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == pytest.approx(0.2)    # after the sibling settled


def test_shielded_process_never_fails_even_when_not_strict():
    cluster, node = build(strict=False)
    proc = node.shielded(child(cluster.sim, 0.1, error=OSError("x")))
    cluster.sim.run()
    assert proc._ok and isinstance(proc.value.error, OSError)


# -- replay: same creation ids at the same instants ---------------------------
def reference_fanout(node, gens, name=""):
    """The loop this repo's fan-out sites hand-rolled until the gather."""
    procs = [node.spawn(gen, name) for gen in gens]
    if procs:
        yield AllOf(node.sim, procs)
    return [proc.value for proc in procs]


def gathered_fanout(node, gens, name=""):
    outcomes = yield from node.gather(gens, name)
    return [outcome.result() for outcome in outcomes]


def replay(fanout, parents):
    """Run ``parents`` — ``(start tick, [[delay ticks, ...] per child])`` —
    through ``fanout``; log ``(who, what, now, creation-id counter)``."""
    cluster, node = build()
    sim = cluster.sim
    log = []

    def stamp(who, what):
        log.append((who, what, sim.now, sim._eid))

    def worker(who, delays):
        stamp(who, "start")
        for ticks in delays:
            yield sim.timeout(ticks * TICK)
            stamp(who, "step")
        return who

    def parent(p, start, children):
        yield sim.timeout(start * TICK)
        stamp(p, "fan-out")
        values = yield from fanout(
            node, (worker((p, c), delays)
                   for c, delays in enumerate(children)), "w")
        stamp(p, ("resumed", tuple(values)))

    for p, (start, children) in enumerate(parents):
        node.spawn(parent(p, start, children))
    sim.run()
    stamp("end", None)
    return log


# Small tick counts, zero included, so children of one parent and of
# several parents finish in the same instant and the creation ids decide.
delays = st.lists(st.integers(0, 3), max_size=3)
parents = st.lists(st.tuples(st.integers(0, 3),
                             st.lists(delays, max_size=4)),
                   min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(parents)
def test_gather_takes_the_lane_slots_the_hand_rolled_loop_took(parents):
    assert replay(gathered_fanout, parents) == \
        replay(reference_fanout, parents)
