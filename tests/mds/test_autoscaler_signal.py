"""The autoscaler's per-shard load signal, measured on running ensembles.

A shard's load is how far its replica log grew since the previous tick:
only a sequenced write enters the log, and it enters once whichever
server took it.
"""

import pytest

from repro.bench.elastic_bench import bench_elastic_params, colliding_dirs
from repro.core import build_dufs_deployment
from repro.mds import ShardMap, ShardMapRegistry
from repro.mds.autoscaler import Autoscaler
from repro.models.params import ResolveParams, SimParams
from repro.sim import Cluster
from repro.workloads.driver import run_phase
from repro.zk import ZKClient, build_ensemble


class _FakeMigrator:
    sim = None


def test_each_sequenced_write_counts_once_and_reads_count_zero():
    cluster = Cluster(seed=0)
    nodes = [cluster.add_node(f"n{i}") for i in range(3)]
    cnode = cluster.add_node("cli")
    ens = build_ensemble(cluster, nodes, 3)            # zk0 leads
    via_follower = ZKClient(cnode, ens.endpoints, prefer="zk1")
    via_leader = ZKClient(cnode, ens.endpoints, prefer="zk0")
    scaler = Autoscaler(ShardMapRegistry(ShardMap(1)), _FakeMigrator(), [],
                        ensembles=[ens])

    def run(gen):
        cluster.sim.run(until=cnode.spawn(gen))
        cluster.sim.run(until=cluster.sim.now + 0.2)   # every replica logs

    run(via_follower.exists("/"))
    run(via_leader.exists("/"))
    scaler._sample_shards(1.0)                         # sessions settled
    run(via_follower.create("/a"))
    assert scaler._sample_shards(0.5) == {0: pytest.approx(2.0)}
    run(via_leader.create("/b"))
    assert scaler._sample_shards(1.0) == {0: pytest.approx(1.0)}
    run(via_follower.get("/a"))
    run(via_leader.resolve("/b"))
    assert scaler._sample_shards(1.0) == {0: 0.0}
    # A resync that truncates the log is no negative load.
    for s in ens.servers:
        del s.log[-1]
    assert scaler._sample_shards(1.0) == {0: 0.0}


def test_a_read_only_burst_on_one_shard_splits_nothing():
    """Thin-client resolves and the servers' dentry marks are reads: a
    stat burst over directories that all hash to shard 0 leaves the
    shard map alone."""
    dep = build_dufs_deployment(
        n_zk=8, n_backends=2, n_client_nodes=4, backend="local",
        params=SimParams(elastic=bench_elastic_params()), n_shards=4,
        resolve=ResolveParams.resolve_on())
    sim = dep.cluster.sim
    dirs = colliding_dirs(0, 8, "r")
    nodes = [dep.node_for(p) for p in range(16)]

    def scaffold():
        m = dep.mount_for(0)
        for d in dirs:
            yield from m.mkdir(d)
            for i in range(4):
                yield from m.create(f"{d}/f{i}")
    run_phase(sim, "scaffold", [nodes[0]], [scaffold()], 0)
    sim.run(until=sim.now + 1.0)
    settled = len(dep.autoscaler.decisions)

    def reader(p):
        m = dep.mount_for(p)
        for _ in range(30):
            for i, d in enumerate(dirs):
                yield from m.stat(f"{d}/f{(p + i) % 4}")
    run_phase(sim, "burst", nodes, [reader(p) for p in range(16)], 240)
    assert dep.autoscaler.decisions[settled:] == []
