"""DUFS client fault tolerance: degraded mode, ZK retry/fail-over, and
transparent session re-establishment."""

import pytest

from repro.core import build_dufs_deployment
from repro.errors import EIO, FSError
from repro.models.params import FaultToleranceParams, SimParams, ZKParams


def test_degraded_mode_fails_only_mapped_slice():
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local", seed=4)
    mount = dep.mounts[0]
    client = dep.clients[0]
    dep.call(mount.mkdir, "/d")

    client.mark_backend_down(0)
    ok, failed = [], []
    for i in range(12):
        try:
            dep.call(mount.create, f"/d/f{i}")
            ok.append(i)
        except FSError as e:
            assert e.err == EIO
            failed.append(i)
    # MD5 spreads FIDs over both back-ends: some ops fail (their slice is
    # dark), the rest keep working — the paper's partial-failure claim.
    assert ok and failed
    assert client.stats["degraded_fails"] >= len(failed)

    # Namespace-only operations never touch the dead back-end.
    st = dep.call(mount.stat, "/d")
    assert st is not None
    names = {e.name for e in dep.call(mount.readdir, "/d")}
    assert names == {f"f{i}" for i in ok}

    # Recovery restores the full slice.
    client.mark_backend_up(0)
    for i in failed:
        dep.call(mount.create, f"/d/f{i}")
    assert {e.name for e in dep.call(mount.readdir, "/d")} == \
        {f"f{i}" for i in range(12)}


def test_degraded_backend_file_ops_fail_fast_without_hanging():
    dep = build_dufs_deployment(n_zk=1, n_backends=1, n_client_nodes=1,
                                backend="local", seed=4)
    mount = dep.mounts[0]
    dep.call(mount.create, "/f")
    dep.clients[0].mark_backend_down(0)
    before = dep.cluster.sim.now
    with pytest.raises(FSError) as exc:
        dep.call(mount.stat, "/f")
    assert exc.value.err == EIO
    assert dep.cluster.sim.now - before < 1.0   # fail fast, no timeout wait


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


def test_session_reestablished_after_expiry():
    params = SimParams()
    params.zk = ZKParams(session_tracking=True, session_timeout=30.0)
    dep = build_dufs_deployment(n_zk=1, n_backends=1, n_client_nodes=1,
                                backend="local", params=params, seed=4)
    zkc = dep.zk_clients[0]
    dep.call(zkc.connect)
    old = zkc.session
    assert old is not None

    # Server forgets the session (as after an expiry sweep).
    dep.ensemble.servers[0].sessions.pop(old)
    # An ephemeral create trips SessionExpired server-side; the client
    # transparently reconnects, rebinds the request, and succeeds.
    dep.call(zkc.create, "/eph", b"D:755:0:0", True)
    assert zkc.session is not None and zkc.session != old
    assert zkc.last_retries >= 1
    stat = dep.call(zkc.exists, "/eph")
    assert stat is not None and stat.ephemeral_owner == zkc.session
