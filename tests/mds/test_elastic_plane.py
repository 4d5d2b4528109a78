"""The elastic plane end-to-end: epoch bounces, live migration, and the
byte-identical-when-off guarantee."""

import hashlib

import pytest

from repro.core import build_dufs_deployment
from repro.mds import ShardedMDS
from repro.models.params import ElasticParams, SimParams
from repro.svc import TraceBus
from repro.workloads.mdtest import MdtestConfig, run_mdtest

#: sha256 over every OpTrace of the pinned replay below, recorded on a
#: non-elastic deployment. Elastic OFF must keep this byte-identical:
#: no registry, no stamping, no guards — not merely "similar numbers".
#: Re-record deliberately (and say why in the commit) if the *core*
#: simulation changes; the elastic plane itself must never shift it.
#: Re-recorded when each client began making its hash-directory chain at
#: mount: the same 1,525 OpTraces with earlier file-create timings
#: (12,956 -> 12,951 simulator events). Re-recorded when a synchronous
#: unlink began returning before its back-end unlink, which runs in a
#: process of its own: the same OpTraces, earlier file-remove timings
#: (12,951 -> 12,991 simulator events, one per remove). Re-recorded when
#: a file stat with a FID hint began starting its back-end stat beside its
#: znode read: the same OpTraces, earlier file-stat timings (12,991 ->
#: 13,031 simulator events, one per stat). Re-recorded when a synchronous
#: file create began taking a spare, its physical file made ahead of it,
#: and starting the next: the same OpTraces, earlier file-create timings
#: (13,031 -> 13,076 simulator events). Re-recorded when a follower
#: began answering a forwarded write at the instant it applies it, not
#: at the next log_delay tick: earlier write timings, and 1,525 -> 1,535
#: OpTraces (13,076 -> 13,109 simulator events): one more directory
#: chain create, one more child-anchor create and one more exists, as
#: concurrent mkdirs race on an anchor chain in a new order. Re-recorded
#: when a mkdir whose anchor chain is cold began writing the missing
#: placeholders and the anchor in one multi, not one create each: 1,535
#: -> 1,463 OpTraces (writes 812 -> 752, forwarded writes 200 -> 186,
#: reads 252 -> 254) and 13,109 -> 12,280 simulator events. The
#: placeholders made are the same 26.
GOLDEN_DIGEST = "c9e9a9debcd29a816550e14868245ad8ba6dfc7ec969d03769b8c3a988314141"


@pytest.fixture(autouse=True)
def manual_migrations(monkeypatch):
    """Registry and migrator only: each test drives its own moves."""
    monkeypatch.setattr(ElasticParams, "autoscale", False)


def build_elastic(seed=0, bus=None):
    elastic = ElasticParams.elastic_on(drain=0.02, interval=0.05)
    return build_dufs_deployment(n_zk=8, n_backends=2, n_client_nodes=2,
                                 backend="local", seed=seed, n_shards=4,
                                 bus=bus, params=SimParams(elastic=elastic))


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
                              params=SimParams(
                                  elastic=ElasticParams.elastic_on()))


def test_elastic_wiring_and_off_by_default():
    dep = build_elastic()
    assert dep.registry is not None and dep.migrator is not None
    assert dep.autoscaler is None              # manual migrations
    assert dep.bus is None                     # tracing stays optional
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
        # arrive twice: the pinned encoding's second slot was the
        # service start, which always equalled arrive.
        h.update(repr((ev.deployment, ev.endpoint, ev.method, ev.arrive,
                       ev.arrive, ev.end, ev.ok, ev.src, ev.retries,
                       ev.shard)).encode())
    assert len(bus.events) == 1463
    assert h.hexdigest() == GOLDEN_DIGEST


def test_walk_fetches_only_the_entries_known_lacks():
    """The migrator's one subtree walk: the first pass returns the whole
    subtree parents-first; a sweep given those entries re-lists the
    directories and reads only what appeared since."""
    dep = build_elastic()
    m = dep.mounts[0]
    d, _src, _dst = pinnable_dir(dep)
    dep.call(m.mkdir, d)
    dep.call(m.mkdir, f"{d}/sub")
    for i in range(3):
        dep.call(m.create, f"{d}/sub/f{i}")
    cur = dep.registry.current
    mds = ShardedMDS(dep.migrator.clients, shard_map=cur, name="probe")

    def walk(known=()):
        return dep.migrator._walk(mds, d, cur, known)

    entries = dep.call(walk)
    assert [p for p, _data, _is_dir in entries] == [
        f"{d}/sub", f"{d}/sub/f0", f"{d}/sub/f1", f"{d}/sub/f2"]
    gets = []
    real_get = mds.get

    def counting_get(path, watch=None):
        gets.append(path)
        return (yield from real_get(path, watch))
    mds.get = counting_get
    assert dep.call(walk, entries) == [] and gets == []
    dep.call(m.create, f"{d}/sub/late")
    extra = dep.call(walk, entries)
    assert [p for p, _data, _is_dir in extra] == [f"{d}/sub/late"]
    assert gets == [f"{d}/sub/late"]
