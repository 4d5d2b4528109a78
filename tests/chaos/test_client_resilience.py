"""DUFS client fault tolerance: degraded mode, ZK retry/fail-over, and
transparent session re-establishment."""

import pytest

from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.errors import EIO, FSError
from repro.models.params import (AsyncParams, FaultToleranceParams,
                                 SimParams, ZKParams)


def test_degraded_mode_fails_only_mapped_slice():
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local", seed=4)
    mount = dep.mounts[0]
    client = dep.clients[0]
    dep.call(mount.mkdir, "/d")

    client.files.mark_backend_down(0)
    ok, failed = [], []
    for i in range(12):
        try:
            dep.call(mount.create, f"/d/f{i}")
            ok.append(i)
        except FSError as e:
            assert e.err == EIO and "degraded mode" in e.strerror
            failed.append(i)
    # MD5 spreads FIDs over both back-ends: some ops fail (their slice is
    # dark), the rest keep working — the paper's partial-failure claim.
    assert ok and failed

    # Namespace-only operations never touch the dead back-end.
    st = dep.call(mount.stat, "/d")
    assert st is not None
    names = {e.name for e in dep.call(mount.readdir, "/d")}
    assert names == {f"f{i}" for i in ok}

    # Recovery restores the full slice.
    client.files.mark_backend_up(0)
    for i in failed:
        dep.call(mount.create, f"/d/f{i}")
    assert {e.name for e in dep.call(mount.readdir, "/d")} == \
        {f"f{i}" for i in range(12)}


def test_degraded_backend_file_ops_fail_fast_without_hanging():
    dep = build_dufs_deployment(n_zk=1, n_backends=1, n_client_nodes=1,
                                backend="local", seed=4)
    mount = dep.mounts[0]
    dep.call(mount.create, "/f")
    dep.clients[0].files.mark_backend_down(0)
    before = dep.cluster.sim.now
    with pytest.raises(FSError) as exc:
        dep.call(mount.stat, "/f")
    assert exc.value.err == EIO
    assert dep.cluster.sim.now - before < 1.0   # fail fast, no timeout wait


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_degraded_unlink_fails_before_the_name_goes(mode):
    """Degraded mode fails an op whose FID maps to a dead back-end before
    the namespace changes: the unlink raises EIO and the name survives,
    so nothing is left to audit once the back-end is back (an unlink that
    removed the name first left an orphan physical file per failure)."""
    params = SimParams()
    if mode == "async":
        params.awrite = AsyncParams.async_on()
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local", params=params, seed=4)
    mount, client = dep.mounts[0], dep.clients[0]
    dep.call(mount.mkdir, "/d")
    for i in range(6):
        dep.call(mount.create, f"/d/f{i}")
    dep.call(client.flush)

    client.files.mark_backend_down(0)
    removed, failed = [], []
    for i in range(6):
        try:
            dep.call(mount.unlink, f"/d/f{i}")
            removed.append(i)
        except FSError as e:
            assert e.err == EIO and "degraded mode" in e.strerror
            failed.append(i)
    assert dep.call(client.flush) == []
    assert removed and failed
    assert {e.name for e in dep.call(mount.readdir, "/d")} == \
        {f"f{i}" for i in failed}

    client.files.mark_backend_up(0)
    report = audit_dufs(dep)
    assert report.ok, report.to_text()
    for i in failed:
        dep.call(mount.unlink, f"/d/f{i}")
    dep.call(client.flush)
    assert dep.call(mount.readdir, "/d") == []
    assert audit_dufs(dep).ok


def test_zk_client_survives_leader_crash():
    params = SimParams()
    params.zk = ZKParams(failure_detection=True, ping_interval=0.1,
                         ping_timeout=0.3, election_tick=0.05)
    dep = build_dufs_deployment(n_zk=3, n_backends=1, n_client_nodes=1,
                                backend="local", params=params,
                                co_locate_zk=False, seed=6,
                                zk_request_timeout=0.4, zk_max_retries=10)
    dep.cluster.sim.run(until=1.0)
    mount = dep.mounts[0]
    dep.call(mount.mkdir, "/d")

    leader = dep.ensemble.leader
    leader.node.crash()
    # Every op the client sends now first times out against its preferred
    # (possibly dead) server, then fails over and retries with backoff.
    for i in range(10):
        dep.call(mount.create, f"/d/f{i}")
    assert len(dep.call(mount.readdir, "/d")) == 10


def test_zk_defaults_bound_lost_requests():
    """The old defaults (no timeout, no retries) hung forever on a lost
    message; the FaultToleranceParams defaults turn that into a bounded
    ConnectionLossError."""
    from repro.zk.errors import ConnectionLossError

    dep = build_dufs_deployment(n_zk=1, n_backends=1, n_client_nodes=1,
                                backend="local", seed=4)
    zkc = dep.zk_clients[0]
    assert zkc.fault.request_timeout == FaultToleranceParams().request_timeout
    assert zkc.fault.max_retries == FaultToleranceParams().max_retries

    dep.ensemble.servers[0].node.crash()
    with pytest.raises(ConnectionLossError):
        dep.call(zkc.create, "/x", b"D:755:0:0")
    # Bounded: retries * timeout + backoff, not an infinite hang.
    assert dep.cluster.sim.now < FaultToleranceParams().op_budget + 10
