"""Write-behind mode under faults: crash losses stay confined to the
acked-but-uncommitted window, never become namespace damage.

The acceptance claim: a chaos run with async writes enabled still audits
clean — a client crash mid-drain may *lose* whatever was acked but not
yet quorum-committed (the mode's advertised bounded loss, counted as
``lost_unacked``), but it may not leave dangling mappings or orphan FIDs
the auditor cannot attribute to that window.
"""

import pytest

from repro.chaos import ChaosSchedule, run_chaos
from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.models.params import AsyncParams, SimParams


def build_async_dep(seed=7, **kw):
    kw.setdefault("awrite", AsyncParams.async_on())
    return build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                 backend="local", params=SimParams(),
                                 seed=seed, co_locate_zk=False, **kw)


def test_awrite_is_dufs_only():
    with pytest.raises(ValueError):
        run_chaos("lustre", awrite=AsyncParams.async_on(), ops=10)


def test_client_crash_mid_drain_bounds_loss_to_unacked_window():
    dep = build_async_dep()
    cli = dep.clients[0]
    node = dep.client_nodes[0]
    sim = dep.cluster.sim

    acked = []

    def work():
        yield from cli.mkdir("/d")
        yield from cli.flush()
        for i in range(40):
            yield from cli.create(f"/d/f{i}")
        acked.append(sim.now)

    node.spawn(work())
    while not acked:
        sim.step()
    # All 40 creates are acked; most are still in the window.
    assert len(cli.wblog) > 0
    node.crash()
    sim.run(until=sim.now + 2.0)
    node.recover()
    sim.run(until=sim.now + 2.0)

    assert cli.wblog.stats["lost"] > 0
    report = audit_dufs(dep)
    assert report.ok, report.to_text()
    # Every orphaned physical file is attributed to the lost window —
    # some lost ops committed server-side before the ack bookkeeping
    # died, so lost_unacked is bounded by (not equal to) stats["lost"].
    assert 0 < report.lost_unacked <= cli.wblog.stats["lost"]
    assert "lost-unacked" in report.to_text()
    assert report.to_dict()["lost_unacked"] == report.lost_unacked


def test_client_recovers_cold_and_keeps_working_after_crash():
    dep = build_async_dep()
    cli = dep.clients[0]
    node = dep.client_nodes[0]
    sim = dep.cluster.sim

    acked = []

    def work():
        yield from cli.mkdir("/d")
        yield from cli.flush()
        for i in range(30):
            yield from cli.create(f"/d/f{i}")
        acked.append(1)

    node.spawn(work())
    while not acked:
        sim.step()
    node.crash()
    sim.run(until=sim.now + 1.0)
    node.recover()
    sim.run(until=sim.now + 1.0)

    # No ghosts: the overlay forgot the lost window, so reads go to the
    # authoritative namespace; new writes drain normally.
    done = []

    def work2():
        for i in range(5):
            yield from cli.create(f"/d/g{i}")
        errors = yield from cli.flush()
        names = yield from cli.readdir("/d")
        done.append((errors, sorted(e.name for e in names)))

    node.spawn(work2())
    sim.run(until=sim.now + 3.0)
    assert done, "post-recovery workload did not finish"
    errors, names = done[0]
    assert errors == []
    assert {f"g{i}" for i in range(5)} <= set(names)
    assert len(cli.wblog) == 0
    report = audit_dufs(dep)
    assert report.ok, report.to_text()


def test_lost_pending_deletes_are_excused_not_damage():
    """The delete direction: physical unlink happens at ack time, the
    znode delete commits at drain. A crash between the two leaves znodes
    mapping to unlinked files — dangling mappings the auditor must
    attribute to the lost window."""
    dep = build_async_dep(seed=11)
    cli = dep.clients[0]
    node = dep.client_nodes[0]
    sim = dep.cluster.sim

    staged = []

    def stage():
        yield from cli.mkdir("/d")
        for i in range(30):
            yield from cli.create(f"/d/f{i}")
        errors = yield from cli.flush()
        assert errors == []
        staged.append(1)

    node.spawn(stage())
    sim.run(until=sim.now + 5.0)
    assert staged

    acked = []

    def remove():
        for i in range(30):
            yield from cli.unlink(f"/d/f{i}")
        acked.append(1)

    node.spawn(remove())
    while not acked:
        sim.step()
    assert len(cli.wblog) > 0
    node.crash()
    sim.run(until=sim.now + 2.0)

    report = audit_dufs(dep)
    assert report.ok, report.to_text()
    assert report.lost_unacked > 0


@pytest.mark.chaos
def test_chaos_zk_crashes_with_async_writes_audit_clean():
    """ZK server faults (not client faults) under write-behind load: the
    drain retries through fail-over like any client, so nothing is lost
    and the audit is clean; the op stream never blocks on the quorum."""
    sched = ChaosSchedule().crash(0.8, "meta:0").recover(2.2, "meta:0")
    result = run_chaos("dufs", schedule=sched, ops=300, seed=7,
                       awrite=AsyncParams.async_on())
    assert result.failed == 0
    assert result.completed == 300
    assert result.audit is not None and result.audit.ok, \
        result.audit.to_text()


@pytest.mark.chaos
def test_chaos_async_run_is_deterministic():
    sched = ChaosSchedule().crash(0.8, "meta:1").recover(2.0, "meta:1")
    a = run_chaos("dufs", schedule=sched, ops=150, seed=3,
                  awrite=AsyncParams.async_on())
    b = run_chaos("dufs", schedule=sched, ops=150, seed=3,
                  awrite=AsyncParams.async_on())
    assert a.completed == b.completed and a.failed == b.failed
    assert a.audit.to_dict() == b.audit.to_dict()
