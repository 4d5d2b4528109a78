"""Election edge cases: observers, partitions during votes, rejoins."""


import pytest

from repro.models.params import FaultToleranceParams, ZKParams
from repro.sim import Cluster
from repro.zk import build_ensemble
from repro.zk.election import vote_order

from .test_failures import elect_harness, wait_for_leader


def test_vote_order_prefers_zxid_then_sid():
    assert vote_order(10, 0) > vote_order(9, 5)
    assert vote_order(10, 5) > vote_order(10, 0)


def test_observer_never_becomes_leader_through_failures():
    params = ZKParams(failure_detection=True)
    cluster = Cluster(seed=9)
    nodes = [cluster.add_node(f"n{i}") for i in range(5)]
    cluster.add_node("cli")
    ens = build_ensemble(cluster, nodes, 3, params=params,
                         static_leader=None, n_observers=2)
    # Let the voters elect.
    cluster.sim.run(until=3.0)
    leaders = [s for s in ens.servers if s.role == "leading"]
    assert len(leaders) == 1 and not leaders[0].observer
    # Crash the leader; the replacement must again be a voter.
    leaders[0].node.crash()
    cluster.sim.run(until=cluster.sim.now + 5.0)
    leaders = [s for s in ens.servers
               if s.role == "leading" and not s.node.down]
    assert len(leaders) == 1
    assert not leaders[0].observer


def test_partition_during_election_resolves_after_heal():
    h = elect_harness(5, seed=21)
    # Partition BEFORE any leader exists: 2-node side can never elect.
    hosts = [s.node.name for s in h.ensemble.servers]
    h.cluster.network.partition([hosts[:2],
                                 hosts[2:] + [h.client_nodes[0].name]])
    h.settle(3.0)
    minority_leaders = [s for s in h.ensemble.servers[:2]
                        if s.role == "leading" and s.activated]
    assert not minority_leaders
    majority_leaders = [s for s in h.ensemble.servers[2:]
                        if s.role == "leading" and s.activated]
    assert len(majority_leaders) == 1
    # Heal: the stranded pair joins the established leader.
    h.cluster.network.heal()
    h.settle(4.0)
    assert all(s.role == "following" for s in h.ensemble.servers[:2])
    assert all(s.leader_sid == majority_leaders[0].sid
               for s in h.ensemble.servers[:2])


@pytest.mark.slow
def test_two_crash_recover_cycles_preserve_data():
    h = elect_harness(3, seed=33)
    wait_for_leader(h)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=8))

    def write(tag):
        def gen():
            yield from cli.create(f"/cycle-{tag}", b"")
        return gen()

    h.run(write("a"))
    for cycle in range(2):
        leader = next(s for s in h.ensemble.servers
                      if s.role == "leading" and not s.node.down)
        leader.node.crash()
        wait_for_leader(h, timeout=8.0)
        h.run(write(f"b{cycle}"))
        leader.node.recover()
        h.settle(3.0)
    h.settle(2.0)
    live = [s for s in h.ensemble.servers if not s.node.down]
    assert len(live) == 3
    for s in live:
        for tag in ("a", "b0", "b1"):
            assert s.store.exists(f"/cycle-{tag}") is not None, (s.sid, tag)
    assert h.ensemble.converged()
