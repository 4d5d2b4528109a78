"""Admission policies: direct pass-through, bounded FIFO."""

from repro.sim import Cluster
from repro.svc import (
    AdmissionPolicy,
    BoundedAdmission,
    DirectAdmission,
)


def test_direct_admission_is_free():
    pol = DirectAdmission()
    assert pol.admit("anything") is None
    pol.release(None)          # no-op, must not raise
    assert pol.depth == 0
    assert isinstance(pol, AdmissionPolicy)


def test_bounded_admission_serializes():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    sim = cluster.sim
    pol = BoundedAdmission(sim, 1)
    order = []

    def worker(i):
        tok = pol.admit("op")
        try:
            yield tok
            order.append((i, sim.now))
            yield sim.timeout(1.0)
        finally:
            pol.release(tok)

    for i in range(3):
        node.spawn(worker(i))
    cluster.run()
    assert [i for i, _ in order] == [0, 1, 2]
    # Each admission waited for the previous holder's full second.
    assert [round(t, 6) for _, t in order] == [0.0, 1.0, 2.0]


def test_bounded_admission_depth():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    sim = cluster.sim
    pol = BoundedAdmission(sim, 1)

    def worker():
        tok = pol.admit("op")
        try:
            yield tok
            yield sim.timeout(1.0)
        finally:
            pol.release(tok)

    for _ in range(3):
        node.spawn(worker())
    sim.run(until=0.5)
    assert pol.depth == 2       # one in service, two waiting
    cluster.run()
    assert pol.depth == 0
