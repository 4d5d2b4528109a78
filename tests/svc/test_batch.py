"""Group-commit Batcher: coalescing, crash clear, recovery restart."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cluster
from repro.svc import Batcher


def make():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    return cluster, node


def test_batcher_coalesces_up_to_max_batch():
    cluster, node = make()
    flushed = []

    def flush(batch):
        yield cluster.sim.timeout(1e-3)
        flushed.append(list(batch))

    b = Batcher(node, "b", flush, max_batch=4)

    def producer():
        for i in range(10):
            b.submit(i)
        yield cluster.sim.timeout(0)

    node.spawn(producer())
    cluster.run()
    # First flush takes whatever was queued when the loop woke (all 10 are
    # submitted at t=0, so they drain in ceil(10/4) = 3 batches).
    assert [len(batch) for batch in flushed] == [4, 4, 2]
    assert [x for batch in flushed for x in batch] == list(range(10))
    assert b.stats == {"flushes": 3, "items": 10}
    assert len(b) == 0


def test_batcher_flushes_arrivals_during_flush_together():
    cluster, node = make()
    flushed = []

    def flush(batch):
        yield cluster.sim.timeout(1.0)
        flushed.append(list(batch))

    b = Batcher(node, "b", flush, max_batch=64)

    def producer():
        b.submit("a")
        yield cluster.sim.timeout(0.5)   # lands mid-flush of ["a"]
        b.submit("b")
        b.submit("c")

    node.spawn(producer())
    cluster.run()
    assert flushed == [["a"], ["b", "c"]]


def test_batcher_rejects_bad_max_batch():
    _, node = make()
    with pytest.raises(ValueError):
        Batcher(node, "b", lambda batch: iter(()), max_batch=0)


def test_batcher_crash_clear_and_restart():
    cluster, node = make()
    flushed = []

    def flush(batch):
        yield cluster.sim.timeout(1.0)
        flushed.extend(batch)

    b = Batcher(node, "b", flush, max_batch=64)

    def producer():
        b.submit(1)
        b.submit(2)
        yield cluster.sim.timeout(0.5)   # mid-flush
        node.crash()
        b.clear()

    node.spawn(producer())
    cluster.run(until=2.0)
    assert flushed == [] and len(b) == 0   # un-flushed work died

    node.recover()
    b.restart()

    def producer2():
        b.submit(3)
        yield cluster.sim.timeout(0)

    node.spawn(producer2())
    cluster.run()
    assert flushed == [3]


def test_batcher_marks_occupancy_on_the_bus():
    from repro.svc import TraceBus

    cluster, node = make()
    bus = TraceBus()

    def flush(batch):
        yield cluster.sim.timeout(1e-3)

    b = Batcher(node, "wb", flush, max_batch=4, bus=bus, deployment="test")

    def producer():
        for i in range(10):
            b.submit(i)
        yield cluster.sim.timeout(0)

    node.spawn(producer())
    cluster.run()
    occ = bus.batch_occupancy()
    row = occ["test/wb"]
    assert row["flushes"] == 3 and row["items"] == 10
    assert abs(row["fill_mean"] - 10 / 3) < 1e-9
    assert row["depth_mean"] >= 0.0
    # The human-readable table grows a batcher occupancy section.
    table = bus.table()
    assert "batcher" in table and "test/wb" in table


def test_unwired_batcher_records_nothing():
    from repro.svc import TraceBus

    cluster, node = make()
    bus = TraceBus()

    def flush(batch):
        yield cluster.sim.timeout(1e-3)

    b = Batcher(node, "wb", flush, max_batch=4)   # default NULL_BUS

    def producer():
        b.submit(1)
        yield cluster.sim.timeout(0)

    node.spawn(producer())
    cluster.run()
    assert b.stats["flushes"] == 1
    assert bus.batch_occupancy() == {} and "batcher" not in bus.table()


# -- idle-only kicks -----------------------------------------------------------
# ``submit`` wakes the loop only on its idle -> busy edge. The loop before
# that — one kick token per submit, whatever the loop is doing — is kept
# here as the reference: same batches, same instants, and exactly one
# creation id fewer per submit that found the loop busy.


class EveryKickBatcher(Batcher):
    """The reference: a token per submit."""

    def submit(self, item):
        self.queue.append(item)
        self._kick.put(True)


class CountingBatcher(Batcher):
    """The real thing, counting the submits that found it busy."""

    busy_submits = 0

    def submit(self, item):
        self.busy_submits += not self._idle
        super().submit(item)


def drive(cls, script, flush_ticks, max_batch):
    """Submit item ``k`` after ``script[k]`` more ticks; returns the
    batcher, ``[(instant, batch)]`` and the creation ids consumed."""
    cluster, node = make()
    sim = cluster.sim
    flushed = []

    def flush(batch):
        yield sim.timeout(flush_ticks / 8)
        flushed.append((sim.now, list(batch)))

    b = cls(node, "b", flush, max_batch=max_batch)

    def producer():
        for k, wait in enumerate(script):
            if wait:
                yield sim.timeout(wait / 8)
            b.submit(k)

    node.spawn(producer())
    cluster.run()
    return b, flushed, sim._eid


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((0, 0, 1, 2, 3, 7)), min_size=1, max_size=30),
       st.integers(1, 4), st.integers(1, 5))
def test_idle_only_kicks_flush_what_a_kick_per_submit_flushed(
        script, flush_ticks, max_batch):
    """Fails if a token is put while the loop is busy (the id counts then
    agree) and if a kick is ever missed (a batch flushes late or never)."""
    b, flushed, ids = drive(CountingBatcher, script, flush_ticks, max_batch)
    _, ref_flushed, ref_ids = drive(EveryKickBatcher, script, flush_ticks,
                                    max_batch)
    assert flushed == ref_flushed
    assert [k for _, batch in flushed for k in batch] == \
        list(range(len(script)))
    assert ref_ids - ids == b.busy_submits
    assert not b._kick.items and b._idle          # parked, no stale token


def test_k_submits_during_one_flush_cost_one_wakeup_per_idle_period():
    # t=0: one submit wakes the idle loop; five more land mid-flush and are
    # picked up by the loop's own re-test; the loop parks at t=2/8. The
    # late submit starts the second idle period.
    script = [0, 1, 0, 0, 0, 0, 16]
    b, flushed, ids = drive(CountingBatcher, script, 2, 64)
    assert flushed == [(2 / 8, [0]), (4 / 8, [1, 2, 3, 4, 5]), (19 / 8, [6])]
    assert b.busy_submits == 5
    # loop + producer start (2), producer's two waits (2), three flush
    # timeouts (3) — and one wake-up per idle period (2), not per submit.
    assert ids == 2 + 2 + 3 + 2


def test_a_submit_before_the_loop_first_ran_is_flushed():
    cluster, node = make()
    flushed = []

    def flush(batch):
        yield cluster.sim.timeout(1.0)
        flushed.append(list(batch))

    b = Batcher(node, "b", flush)
    b.submit("early")            # the loop process has not run yet
    b.submit("too")
    cluster.run()
    assert flushed == [["early", "too"]]

    node.crash()
    b.clear()
    node.recover()
    b.restart()
    b.submit("after restart")    # nor has its replacement
    cluster.run()
    assert flushed == [["early", "too"], ["after restart"]]
