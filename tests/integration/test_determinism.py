"""System-level determinism: identical runs give bit-identical results,
and only the runs that draw random numbers take a seed.

Everything the benchmark harness reports relies on this property; it is
also what makes failure reproductions debuggable.
"""

import pytest

from repro.bench.figures import _run_basic, _run_dufs
from repro.workloads.mdtest import ALL_PHASES
from repro.workloads.zkraw import ZKRawConfig, run_zk_raw


def test_zkraw_deterministic(streams_opened):
    a = run_zk_raw(ZKRawConfig(n_servers=3, n_procs=12, ops_per_proc=8))
    b = run_zk_raw(ZKRawConfig(n_servers=3, n_procs=12, ops_per_proc=8))
    for phase in a.phases:
        assert a.phases[phase].duration == b.phases[phase].duration
    assert streams_opened == []


def test_mdtest_on_lustre_deterministic(streams_opened):
    a, _ = _run_basic("lustre", 16, 5)
    b, _ = _run_basic("lustre", 16, 5)
    for phase in ALL_PHASES:
        assert a.phases[phase].duration == b.phases[phase].duration
    # The jitter-free model has no stochastic input on the fault-free
    # path: the run opens no random stream, so there is no seed to vary.
    assert streams_opened == []


def test_full_dufs_stack_deterministic(streams_opened):
    a = _run_dufs("lustre", 16, 5, n_zk=3)
    b = _run_dufs("lustre", 16, 5, n_zk=3)
    for phase in ALL_PHASES:
        assert a.phases[phase].duration == b.phases[phase].duration
        assert a.latency(phase).p99 == b.latency(phase).p99
    assert streams_opened == []


@pytest.mark.chaos
def test_chaos_run_deterministic():
    """Same seed + same schedule => byte-identical event traces, identical
    op counts and stall gaps, and identical audit reports."""
    from repro.chaos import run_chaos

    a = run_chaos("dufs", ops=120, seed=5)
    b = run_chaos("dufs", ops=120, seed=5)
    assert a.trace == b.trace
    assert a.completed == b.completed and a.failed == b.failed
    assert a.max_stall == b.max_stall
    assert a.audit.to_dict() == b.audit.to_dict()
    assert a.summary() == b.summary()
    # A different seed draws a different random schedule.
    c = run_chaos("dufs", ops=120, seed=6)
    assert c.trace != a.trace


@pytest.mark.chaos
def test_lossy_link_runs_deterministic():
    """Probabilistic loss/duplication draws from a named stream: two runs
    with the same seed drop and duplicate identically."""
    from repro.chaos import ChaosSchedule, run_chaos

    sched = (ChaosSchedule()
             .drop(0.2, "*", "*", probability=0.05, duplicate=0.05)
             .restore_link(1.2, "*", "*"))
    a = run_chaos("dufs", schedule=sched, ops=120, seed=4)
    b = run_chaos("dufs", schedule=sched, ops=120, seed=4)
    assert a.trace == b.trace
    assert a.completed == b.completed and a.failed == b.failed
    assert a.max_stall == b.max_stall
    assert a.audit.to_dict() == b.audit.to_dict()
