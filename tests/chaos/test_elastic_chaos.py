"""Crash-during-migration: the journaled two-phase protocol must leave
the namespace auditable from either side of the cutover."""

import pytest

from repro.chaos import audit_dufs
from repro.core import build_dufs_deployment
from repro.models.params import ElasticParams, SimParams, ZKParams


@pytest.fixture(autouse=True)
def manual_migrations(monkeypatch):
    """Registry and migrator only: each test drives its own moves."""
    monkeypatch.setattr(ElasticParams, "autoscale", False)


def build_elastic_chaos(seed=0):
    """2 shards x 3 servers, fast-failing ZK clients so a dead quorum is
    detected in sim-milliseconds instead of stretching the test."""
    params = SimParams(
        elastic=ElasticParams.elastic_on(drain=0.02))
    params.zk = ZKParams(failure_detection=True, ping_interval=0.1,
                         ping_timeout=0.3, election_tick=0.05)
    return build_dufs_deployment(n_zk=6, n_backends=2, n_client_nodes=2,
                                 backend="local", n_shards=2, params=params,
                                 co_locate_zk=False, seed=seed,
                                 zk_request_timeout=0.2, zk_max_retries=2)


def populated_dir(dep, n_files=40):
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    d = next(f"/t{i}" for i in range(64)
             if svc.map.child_shard(f"/t{i}") in (0, 1))
    src = svc.map.child_shard(d)
    dep.call(m.mkdir, d)
    for i in range(n_files):
        dep.call(m.create, f"{d}/f{i:03d}")
    return d, src, 1 - src


def step_until(sim, cond, limit=5.0, dt=0.002):
    deadline = sim.now + limit
    while not cond() and sim.now < deadline:
        sim.run(until=sim.now + dt)
    assert cond(), "migration never reached the target phase"


def in_copy_phase(dep, min_entries=3):
    def cond():
        migs = dep.registry.migrations
        return bool(migs) and migs[0].state == "copy" \
            and migs[0].entries_copied >= min_entries
    return cond


def test_src_quorum_crash_after_cutover_rolls_forward():
    """Source shard dies right after cutover: the new map is installed,
    but stale-copy cleanup and marker-retire on the dead source fail.
    The surviving marker tells the auditor the migration was torn;
    rolling it forward under current-map authority audits clean."""
    dep = build_elastic_chaos()
    sim = dep.cluster.sim
    d, src, dst = populated_dir(dep)

    dep.client_nodes[0].spawn(dep.migrator.split(d, dst))
    step_until(sim, in_copy_phase(dep))
    mig = dep.registry.migrations[0]
    step_until(sim, lambda: mig.state == "done")   # cutover, pre-cleanup
    for server in dep.ensembles[src].servers:
        server.node.crash()
    sim.run(until=sim.now + 8.0)

    assert dep.registry.epoch == 1
    assert dep.registry.current.child_shard(d) == dst
    assert dep.migrator.stats["splits"] == 1

    # The marker survived on the dead shard's store; the auditor rolls
    # the torn migration forward and the namespace audits clean.
    report = audit_dufs(dep)
    assert report.repairs >= 1
    assert report.ok, report.to_text()

    # A client refreshed to the current map serves the whole subtree
    # from the destination, source still dark.
    svc = dep.clients[0].zk
    svc._adopt_map(dep.registry.current)
    names = dep.call(svc.get_children, d)
    assert names == [f"f{i:03d}" for i in range(40)]
    dep.call(dep.mounts[0].create, f"{d}/after")
    assert "after" in dep.call(svc.get_children, d)


def test_src_quorum_crash_mid_copy_aborts_to_source_authority():
    """Source shard dies while the copy is still running: the migrator
    cannot prove the destination copy complete (the settle sweep needs
    the source), so it aborts — the old map stays current and the frozen
    subtree rides out the outage with the rest of the dead shard. The
    marker could not be retired; the auditor rolls it forward as a
    no-op."""
    dep = build_elastic_chaos()
    sim = dep.cluster.sim
    d, src, dst = populated_dir(dep)

    dep.client_nodes[0].spawn(dep.migrator.split(d, dst))
    step_until(sim, in_copy_phase(dep))
    mig = dep.registry.migrations[0]
    for server in dep.ensembles[src].servers:
        server.node.crash()
    sim.run(until=sim.now + 8.0)

    assert mig.state == "aborted"
    assert dep.registry.epoch == 0
    assert dep.registry.current.subtrees == {}
    assert dep.registry.migrations == []
    report = audit_dufs(dep)
    assert report.repairs >= 1        # the marker it could not retire
    assert report.ok, report.to_text()

    # The shard comes back: the subtree is intact at the source and the
    # aborted move left no routing change behind.
    for server in dep.ensembles[src].servers:
        server.node.recover()
    sim.run(until=sim.now + 3.0)
    svc = dep.clients[0].zk
    names = dep.call(svc.get_children, d)
    assert names == [f"f{i:03d}" for i in range(40)]


def test_dst_quorum_crash_mid_copy_aborts_cleanly():
    """Destination shard dies mid-copy: the copy fails, the migration
    aborts, the old map stays current (the frozen source is complete and
    authoritative), and the marker is retired — nothing for the auditor
    to repair."""
    dep = build_elastic_chaos()
    sim = dep.cluster.sim
    d, src, dst = populated_dir(dep)

    dep.client_nodes[0].spawn(dep.migrator.split(d, dst))
    step_until(sim, in_copy_phase(dep, min_entries=1))
    mig = dep.registry.migrations[0]
    for server in dep.ensembles[dst].servers:
        server.node.crash()
    sim.run(until=sim.now + 8.0)

    assert mig.state == "aborted"
    assert dep.migrator.stats["aborted"] == 1
    assert dep.registry.epoch == 0
    assert dep.registry.current.subtrees == {}
    assert dep.registry.migrations == []       # writers were released

    # Marker retired (source is alive): the audit sees no torn intent,
    # and the destination partials are invisible under the old map.
    report = audit_dufs(dep)
    assert report.repairs == 0
    assert report.ok, report.to_text()

    # The source keeps serving the subtree as if nothing happened.
    svc = dep.clients[0].zk
    dep.call(dep.mounts[0].create, f"{d}/after")
    assert "after" in dep.call(svc.get_children, d)


def test_chaos_migration_targets_resolve_lazily():
    from repro.chaos.runner import _build_dufs

    cluster, dep, _client, node, resolve, _apply = _build_dufs(
        seed=0, shards=2, params=SimParams(
            elastic=ElasticParams.elastic_on(drain=0.02)))
    with pytest.raises(RuntimeError):
        resolve("migration:src")           # nothing in flight yet

    svc = dep.clients[0].zk
    m = dep.mounts[0]
    d = "/t0"
    src = svc.map.child_shard(d)
    dst = 1 - src
    dep.call(m.mkdir, d)
    for i in range(20):
        dep.call(m.create, f"{d}/f{i}")

    proc = node.spawn(dep.migrator.split(d, dst))
    step_until(cluster.sim, in_copy_phase(dep, min_entries=1))
    src_nodes = {s.node for s in dep.ensembles[src].servers}
    dst_nodes = {s.node for s in dep.ensembles[dst].servers}
    assert resolve("migration:src") in src_nodes
    assert resolve("migration:dst") in dst_nodes

    assert cluster.sim.run(until=proc) is True
    with pytest.raises(RuntimeError):
        resolve("migration:src")           # done: nothing to target again
