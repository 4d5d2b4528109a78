"""Admission-queue overflow: bounded wait queues refuse, never leak."""

import pytest

from repro.sim import Cluster
from repro.svc import AdmissionReject, BoundedAdmission


def overflow_harness(pol, sim, node, n, hold=0.5):
    """Spawn ``n`` concurrent workers through ``pol``; returns the logs."""
    admitted, rejected = [], []

    def worker(i):
        try:
            tok = pol.admit("op")
        except AdmissionReject as exc:
            rejected.append((i, exc.depth))
            return
            yield  # pragma: no cover - keeps this a generator
        try:
            yield tok
            admitted.append((i, sim.now))
            yield sim.timeout(hold)
        finally:
            pol.release(tok)

    for i in range(n):
        node.spawn(worker(i))
    return admitted, rejected


def test_bounded_overflow_rejects_at_capacity():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    pol = BoundedAdmission(cluster.sim, 1, max_queue=2)
    admitted, rejected = overflow_harness(pol, cluster.sim, node, 5)
    cluster.run()
    # 1 in service + 2 queued; arrivals 3 and 4 bounce off the full queue.
    assert [i for i, _ in admitted] == [0, 1, 2]
    assert [i for i, _ in rejected] == [3, 4]
    assert all(depth == 2 for _, depth in rejected)
    assert pol.depth == 0


def test_rejected_request_holds_no_token():
    """A rejection must not consume capacity: service keeps flowing at
    full rate and the queue drains to exactly zero."""
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    pol = BoundedAdmission(cluster.sim, 1, max_queue=1)
    admitted, rejected = overflow_harness(pol, cluster.sim, node, 6,
                                          hold=1.0)
    cluster.run()
    assert len(admitted) == 2 and len(rejected) == 4
    # Back-to-back service: second starts the instant the first releases.
    assert [round(t, 6) for _, t in admitted] == [0.0, 1.0]
    assert pol.depth == 0
    assert pol.admit("op") is not None      # fresh capacity available


def test_depth_returns_to_zero_after_mixed_drain():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    pol = BoundedAdmission(cluster.sim, 2, max_queue=3)
    admitted, rejected = overflow_harness(pol, cluster.sim, node, 8,
                                          hold=0.25)
    cluster.sim.run(until=0.1)
    assert pol.depth == 3                   # the wait queue is full
    cluster.run()
    assert len(admitted) + len(rejected) == 8
    assert pol.depth == 0


def test_zero_queue_bound_admits_only_into_a_free_slot():
    sim = Cluster(seed=0).sim
    # No bound given = unbounded wait queue.
    assert BoundedAdmission(sim, 2).max_queue is None
    # max_queue=0: admit straight into a free slot, never wait.
    full = BoundedAdmission(sim, 1, max_queue=0)
    assert full.admit("op") is not None
    with pytest.raises(AdmissionReject):
        full.admit("op")
