"""Fault injection against the sharded metadata plane: a dead shard
degrades only its namespace slice, and the post-chaos audit reconciles
cross-shard residue through the intent records."""

import pytest

from repro.chaos import ChaosSchedule, audit_dufs, run_chaos
from repro.core import build_dufs_deployment
from repro.models.params import SimParams, ZKParams
from repro.zk.errors import ZKError


def test_chaos_run_with_default_schedule_audits_clean():
    result = run_chaos("dufs", seed=3, ops=120, shards=2)
    assert result.completed > 0
    assert result.audit is not None
    assert result.audit.ok, result.audit.to_text()


def test_shard_target_crash_and_recover_audits_clean():
    sched = ChaosSchedule()
    sched.crash(0.3, "shard:1")
    sched.recover(0.8, "shard:1")
    result = run_chaos("dufs", schedule=sched, seed=5, ops=150, shards=2)
    assert result.audit is not None
    assert result.audit.ok, result.audit.to_text()
    # The stream survived the shard outage: the run completed ops.
    assert result.completed > 0


def test_shards_rejected_for_non_dufs():
    with pytest.raises(ValueError):
        run_chaos("lustre", shards=2)


def test_dead_shard_degrades_only_its_slice():
    params = SimParams()
    params.zk = ZKParams(failure_detection=True, ping_interval=0.1,
                         ping_timeout=0.3, election_tick=0.05)
    dep = build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=1,
                                backend="local", n_shards=2, params=params,
                                co_locate_zk=False,
                                zk_request_timeout=0.2, zk_max_retries=2)
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    # Two dirs homed on different shards.
    a = next(f"/t{i}" for i in range(64) if svc.map.child_shard(f"/t{i}") == 0)
    b = next(f"/u{i}" for i in range(64) if svc.map.child_shard(f"/u{i}") == 1)
    dep.call(m.mkdir, a)
    dep.call(m.mkdir, b)
    dep.call(m.create, f"{a}/ok0")
    dep.call(m.create, f"{b}/ok0")

    for server in dep.ensembles[1].servers:     # shard 1 goes dark
        server.node.crash()

    # Shard 0's slice keeps serving...
    dep.call(m.create, f"{a}/ok1")
    assert dep.call(svc.get_children, a) == ["ok0", "ok1"]
    # ...while shard 1's slice exhausts its retry budget and fails.
    from repro.errors import FSError
    with pytest.raises((ZKError, FSError)):
        dep.call(m.create, f"{b}/dead")

    for server in dep.ensembles[1].servers:
        server.node.recover()
    dep.cluster.sim.run(until=dep.cluster.sim.now + 2.0)
    dep.call(m.create, f"{b}/ok1")
    assert dep.call(svc.get_children, b) == ["ok0", "ok1"]
    # The failed create may leave an orphaned physical file: with the
    # shard down the outcome is unverifiable, and the client deliberately
    # keeps the data (a dangling name->FID mapping would be worse). The
    # *namespace* itself must still be consistent — nothing dangling, no
    # tree violations.
    report = audit_dufs(dep)
    assert all(v.kind == "orphan-fid" for v in report.violations), \
        report.to_text()
