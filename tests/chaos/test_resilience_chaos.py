"""Chaos campaigns under the full resilience policy.

The acceptance bar: with deadlines, the retry budget and breakers enabled,
crash/recover campaigns — including shard-targeted ones — must still
audit clean: a budget-denied retry or a breaker fast-fail may fail an op,
never damage the namespace."""

import pytest

from repro.chaos import ChaosSchedule, RandomChaos, run_chaos
from repro.models.params import FaultToleranceParams, SimParams


def test_random_chaos_with_resilience_audits_clean():
    result = run_chaos("dufs", seed=3, ops=120,
                       params=SimParams(
                           fault=FaultToleranceParams.resilience_on()))
    assert result.completed > 0
    assert result.audit is not None
    assert result.audit.ok, result.audit.to_text()


def test_shard_targeted_crash_with_resilience_audits_clean():
    sched = ChaosSchedule()
    sched.crash(0.3, "shard:1")
    sched.recover(0.8, "shard:1")
    result = run_chaos("dufs", schedule=sched, seed=5, ops=150, shards=2,
                       params=SimParams(
                           fault=FaultToleranceParams.resilience_on()))
    assert result.completed > 0
    assert result.audit is not None
    assert result.audit.ok, result.audit.to_text()


def test_leader_crash_with_resilience_audits_clean():
    sched = ChaosSchedule()
    sched.crash(0.4, "zk:leader")
    sched.recover(1.2, "zk:0")
    result = run_chaos("dufs", schedule=sched, seed=7, ops=150,
                       params=SimParams(
                           fault=FaultToleranceParams.resilience_on()))
    assert result.audit is not None
    assert result.audit.ok, result.audit.to_text()


def test_resilience_rejected_for_non_dufs():
    with pytest.raises(ValueError):
        run_chaos("lustre", params=SimParams())
    with pytest.raises(ValueError):
        run_chaos("pvfs", params=SimParams())


def test_random_chaos_recovery_clamped_to_run_window():
    """Satellite fix: a crash drawn near the end of the window must still
    schedule its recover inside the window — no node left down forever."""
    gen = RandomChaos([f"n{i}" for i in range(5)], duration=5.0, seed=2,
                      rate=2.0, mean_downtime=100.0)
    sched = gen.schedule()
    crashes = [e for e in sched if e.kind == "crash"]
    recovers = [e for e in sched if e.kind == "recover"]
    assert crashes, "schedule drew no crashes"
    assert len(recovers) == len(crashes)    # every crash is paired
    assert all(e.at <= 5.0 for e in recovers)
    # With a 100s mean downtime the clamp must actually have fired.
    assert any(e.at == 5.0 for e in recovers)
