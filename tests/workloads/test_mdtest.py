"""mdtest workload driver tests (against the cheap local backend)."""

import pytest

from repro.pfs.localfs import LocalFS
from repro.sim import Cluster
from repro.workloads.driver import PhaseResult, run_phase
from repro.workloads.mdtest import (
    ALL_PHASES,
    MdtestConfig,
    _item_paths,
    run_mdtest,
)
from repro.workloads.treegen import TreeSpec, tree_dirs


def make_env():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n0")
    fs = LocalFS(node)
    return cluster, node, fs


def test_run_phase_reports_ops_and_duration():
    cluster, node, fs = make_env()
    cli = fs.client()

    def worker(k):
        for i in range(5):
            yield from cli.mkdir(f"/w{k}i{i}")

    res = run_phase(cluster.sim, "create", [node],
                    [worker(k) for k in range(4)], ops_per_worker=5)
    assert res.ops == 20
    assert res.duration > 0
    assert res.throughput == pytest.approx(20 / res.duration)


def test_phase_result_zero_duration():
    assert PhaseResult("x", 0, 0.0).throughput == 0.0


def test_item_paths_unique_across_procs():
    cfg = MdtestConfig(n_procs=6, items_per_proc=9)
    all_paths = [p for proc in _item_paths(cfg, "file") for p in proc]
    assert len(set(all_paths)) == 54


def test_item_paths_single_dir_mode():
    cfg = MdtestConfig(n_procs=3, items_per_proc=4, single_dir=True)
    for proc_paths in _item_paths(cfg, "dir"):
        for p in proc_paths:
            assert p.rsplit("/", 1)[0] == cfg.tree.root


def test_full_mdtest_run_all_phases():
    cluster, node, fs = make_env()
    cfg = MdtestConfig(n_procs=4, items_per_proc=6, tree=TreeSpec(3, 2))
    res = run_mdtest(cluster, lambda i: fs.client(), lambda i: node, cfg)
    assert set(res.phases) == set(ALL_PHASES)
    for phase in ALL_PHASES:
        assert res.phases[phase].ops == 24
        assert res.throughput(phase) > 0
    # After dir_remove and file_remove, only the scaffold remains.
    assert fs.ns.count_files() == 0
    scaffold = len(tree_dirs(cfg.tree))
    assert fs.ns.count_dirs() == 1 + scaffold  # root + scaffold


def test_mdtest_phases_leave_consistent_state_mid_campaign():
    """Running only the create phases leaves the items in place."""
    cluster, node, fs = make_env()
    cfg = MdtestConfig(n_procs=2, items_per_proc=5, tree=TreeSpec(2, 1),
                       phases=("dir_create", "file_create"))
    run_mdtest(cluster, lambda i: fs.client(), lambda i: node, cfg)
    assert fs.ns.count_files() == 10


def test_single_dir_mode_contends_one_directory():
    cluster, node, fs = make_env()
    cfg = MdtestConfig(n_procs=4, items_per_proc=5, single_dir=True,
                       phases=("file_create",))
    run_mdtest(cluster, lambda i: fs.client(), lambda i: node, cfg)
    entries = fs.ns.readdir(cfg.tree.root)
    assert len(entries) == 20
