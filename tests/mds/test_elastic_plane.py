"""The elastic plane end-to-end: epoch bounces, live migration, and the
byte-identical-when-off guarantee."""

import hashlib

import pytest

from repro.core import build_dufs_deployment
from repro.models.params import ElasticParams
from repro.svc import TraceBus
from repro.workloads.mdtest import MdtestConfig, run_mdtest

#: sha256 over every OpTrace of the pinned replay below, recorded on a
#: non-elastic deployment. Elastic OFF must keep this byte-identical:
#: no registry, no stamping, no guards — not merely "similar numbers".
#: Re-record deliberately (and say why in the commit) if the *core*
#: simulation changes; the elastic plane itself must never shift it.
GOLDEN_DIGEST = "d0d69f81a702ae9b2a58a9895c076b51a8b37b8f44729aeb97a44396d8bdec62"


def build_elastic(seed=0, bus=None, autoscale=False):
    elastic = ElasticParams.elastic_on(autoscale=autoscale, drain=0.02,
                                       interval=0.05, window=0.15)
    return build_dufs_deployment(n_zk=8, n_backends=2, n_client_nodes=2,
                                 backend="local", seed=seed, n_shards=4,
                                 bus=bus, autoscale=elastic)


def pinnable_dir(dep, tag="t"):
    """A top-level dir plus a shard it does NOT naturally hash to."""
    svc = dep.clients[0].zk
    for i in range(64):
        d = f"/{tag}{i}"
        src = svc.map.child_shard(d)
        dst = (src + 1) % svc.map.n_shards
        return d, src, dst


def test_elastic_needs_at_least_two_shards():
    with pytest.raises(ValueError):
        build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=1,
                              backend="local", n_shards=1,
                              autoscale=ElasticParams.elastic_on())


def test_elastic_wiring_and_off_by_default():
    dep = build_elastic()
    assert dep.registry is not None and dep.migrator is not None
    assert dep.autoscaler is None              # autoscale=False: manual
    plain = build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=1,
                                  backend="local", n_shards=2)
    assert plain.registry is None and plain.migrator is None


def test_live_split_moves_data_and_client_follows():
    dep = build_elastic()
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    d, src, dst = pinnable_dir(dep)
    dep.call(m.mkdir, d)
    for i in range(10):
        dep.call(m.create, f"{d}/f{i}")

    assert dep.call(dep.migrator.split, d, dst) is True
    assert dep.registry.epoch == 1
    assert dep.registry.current.child_shard(d) == dst

    # The client still holds the epoch-0 map; its next op is bounced with
    # StaleShardMapError, adopts the new map, and retries internally.
    dep.call(m.create, f"{d}/f10")
    assert svc.stats["stale_map_retries"] >= 1
    assert svc.map.epoch == 1
    assert dep.call(svc.get_children, d) == \
        sorted(f"f{i}" for i in range(11))
    # Data really lives on the destination shard now.
    store = max(dep.ensembles[dst].servers,
                key=lambda s: s.commit_index).store
    assert f"{d}/f10" in set(store.walk_paths())


def test_stale_epoch_retry_counts_the_op_once():
    bus = TraceBus(keep_events=True)
    dep = build_elastic(bus=bus)
    m = dep.mounts[0]
    d, src, dst = pinnable_dir(dep)
    dep.call(m.mkdir, d)
    dep.call(m.create, f"{d}/f0")
    dep.call(dep.migrator.split, d, dst)

    before = sum(1 for ev in bus.events
                 if ev.deployment == "dufs" and ev.method == "create")
    dep.call(m.create, f"{d}/f1")
    after = [ev for ev in bus.events
             if ev.deployment == "dufs" and ev.method == "create"]
    # One client call = one op on the bus, stale-map bounce and all: the
    # retry happens inside the service, beneath the instrumented surface.
    assert len(after) == before + 1
    assert after[-1].ok
    assert dep.clients[0].zk.stats["stale_map_retries"] >= 1


def test_merge_returns_subtree_to_hash_placement():
    dep = build_elastic()
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    d, src, dst = pinnable_dir(dep)
    dep.call(m.mkdir, d)
    for i in range(5):
        dep.call(m.create, f"{d}/f{i}")
    dep.call(dep.migrator.split, d, dst)
    assert dep.call(dep.migrator.merge, d) is True
    assert dep.registry.epoch == 2
    assert dep.registry.current.subtrees == {}
    assert dep.registry.current.child_shard(d) == src
    dep.call(m.create, f"{d}/f5")
    assert dep.call(svc.get_children, d) == [f"f{i}" for i in range(6)]


def test_elastic_off_replay_is_byte_identical():
    bus = TraceBus(keep_events=True)
    dep = build_dufs_deployment(n_zk=8, n_backends=2, n_client_nodes=2,
                                backend="local", seed=0, bus=bus,
                                n_shards=4)
    cfg = MdtestConfig(n_procs=4, items_per_proc=10,
                       phases=("dir_create", "file_create", "file_stat",
                               "file_remove"))
    run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
    h = hashlib.sha256()
    for ev in bus.events:
        h.update(repr((ev.deployment, ev.endpoint, ev.method, ev.arrive,
                       ev.start, ev.end, ev.ok, ev.src, ev.retries,
                       ev.shard)).encode())
    assert len(bus.events) == 1525
    assert h.hexdigest() == GOLDEN_DIGEST
