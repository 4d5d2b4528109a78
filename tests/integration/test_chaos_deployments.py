"""One fault schedule, three metadata architectures.

The acceptance scenario of the chaos subsystem: the *same* symbolic
schedule is replayed against DUFS (ZooKeeper quorum), single-MDS Lustre
and PVFS, and the degradation modes differ exactly as the paper argues —
DUFS rides out minority crashes with bounded stalls and a clean namespace,
Lustre stalls the whole namespace until takeover, PVFS degrades but never
hangs the simulation.
"""

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosSchedule,
    RandomChaos,
    audit_dufs,
    run_chaos,
)
from repro.core import build_dufs_deployment
from repro.models.params import SimParams, ZKParams
from repro.workloads.mdtest import MdtestConfig, run_mdtest

#: The shared schedule: metadata server 0 dies at t+0.5s, returns at
#: t+2.0s. "meta:0" resolves to a ZK server node (DUFS), the MDS node
#: (Lustre) or the root-owning PVFS server.
SHARED = ChaosSchedule().crash(0.5, "meta:0").recover(2.0, "meta:0")


@pytest.mark.chaos
def test_lustre_mds_crash_stalls_whole_namespace():
    result = run_chaos("lustre", schedule=SHARED, ops=300, seed=7)
    # The MDS is the only metadata path: while it is down *every* op
    # stalls (client retries ride out the outage), and the stall spans
    # the full 1.5 s outage.
    assert result.max_stall > 1.0
    assert result.completed > 250
    assert result.trace and result.trace[0].split()[1] == "crash"


@pytest.mark.chaos
def test_pvfs_server_crash_degrades_but_never_hangs():
    result = run_chaos("pvfs", schedule=SHARED, ops=300, seed=7)
    # Server 0 owns the root directory, so path resolution dies with it:
    # the op stream stalls for the whole outage. The client's bounded
    # retries (5 x 0.5 s) ride it out — ops stall-then-succeed or fail
    # with EIO, but the simulation never wedges.
    assert result.max_stall > 1.0
    assert result.completed > 100
    assert result.elapsed < 10.0


@pytest.mark.chaos
@pytest.mark.parametrize("deployment", ["lustre", "pvfs"])
def test_server_that_never_recovers_costs_failed_ops_not_the_run(deployment):
    """meta:1 (the MDS; a PVFS server holding one datafile of every file)
    stays down past the clients' 5 x 0.5 s retry window: the ops that need
    it end in EIO and are *counted*, the run itself completes."""
    gone = ChaosSchedule().crash(0.5, "meta:1")
    result = run_chaos(deployment, schedule=gone, ops=60, seed=7)
    assert result.failed > 0
    assert result.completed > 0


@pytest.mark.chaos
def test_dufs_rides_out_shared_schedule_with_clean_audit():
    result = run_chaos("dufs", schedule=SHARED, ops=300, seed=7)
    # meta:0 is one ZK server of five: quorum holds, every op completes,
    # and the longest stall is bounded by detection + fail-over, far
    # below Lustre's takeover delay.
    assert result.failed == 0
    assert result.completed == 300
    assert result.max_stall < 1.0
    assert result.audit is not None and result.audit.ok, \
        result.audit.to_text()


@pytest.mark.chaos
@pytest.mark.slow
def test_dufs_minority_zk_crashes_mdtest_zero_violations():
    """The headline acceptance test: seeded random minority ZK crashes
    under a live mdtest workload — everything completes, stalls stay
    bounded by the retry budget, and the post-fault audit is clean."""
    params = SimParams()
    params.zk = ZKParams(failure_detection=True, ping_interval=0.1,
                         ping_timeout=0.3, election_tick=0.05)
    dep = build_dufs_deployment(n_zk=5, n_backends=2, n_client_nodes=2,
                                backend="local", params=params,
                                co_locate_zk=False, seed=11,
                                zk_request_timeout=0.4, zk_max_retries=10)
    dep.cluster.sim.run(until=1.0)   # settle

    # The workload spans ~1-2 simulated seconds; the generator packs a
    # dense minority-crash storm into that window (at most 2 of 5 down).
    schedule = RandomChaos([f"zk:{i}" for i in range(5)], duration=1.5,
                           seed=11, rate=6.0, mean_downtime=0.3,
                           streams=dep.cluster.streams,
                           name="chaos.mdtest").schedule()
    assert len(schedule) >= 2

    def resolve(symbol):
        kind, _, arg = symbol.partition(":")
        return dep.ensemble.servers[int(arg)].node

    engine = ChaosEngine(dep.cluster, schedule, resolve=resolve)
    engine.start()

    config = MdtestConfig(n_procs=4, items_per_proc=150,
                          phases=("dir_create", "file_create", "file_stat"))
    result = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, config)

    for phase in config.phases:
        assert result.phases[phase].ops == 600
        # Bounded stall: no op took longer than the per-op budget.
        assert result.latency(phase).p99 < 60.0

    assert len(engine.trace) >= 2    # faults really fired mid-workload
    report = audit_dufs(dep)
    assert report.ok, report.to_text()
    assert report.checked_files == 600   # every mdtest file materialized
