"""Tiny-scale smoke tests for every figure runner (fast unit coverage;
the benchmarks/ suite runs them at quick scale with shape assertions).
Each doubles as the guard that the runner opens no random stream — the
reason it takes no ``seed``."""

import pytest

from repro.bench.figures import (
    run_ablations,
    run_cmd_comparison,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_single_dir,
)
from repro.workloads.mdtest import ALL_PHASES


@pytest.fixture(autouse=True)
def opens_no_random_stream(streams_opened):
    yield
    assert streams_opened == []


def series_complete(fig, expected_panels, variants):
    for panel in expected_panels:
        for variant in variants:
            name = f"{panel}/{variant}"
            assert name in fig.series, name
            assert all(y > 0 for _, y in fig.series[name]), name


def test_fig7_tiny():
    fig = run_fig7("tiny", ensembles=(1, 3))
    series_complete(fig, ("zoo_create", "zoo_get", "zoo_set", "zoo_delete"),
                    ("zk1", "zk3"))


def test_fig8_tiny():
    fig = run_fig8("tiny", ensembles=(3,))
    series_complete(fig, ALL_PHASES, ("lustre", "zk3"))


def test_fig9_tiny():
    fig = run_fig9("tiny", backend_counts=(2,))
    series_complete(fig, ("file_create", "file_stat", "file_remove"),
                    ("lustre", "backends2"))


def test_fig10_tiny():
    fig = run_fig10("tiny")
    series_complete(fig, ALL_PHASES,
                    ("lustre", "dufs-lustre", "pvfs", "dufs-pvfs"))
    assert fig.wall_seconds > 0


def test_single_dir_tiny():
    fig = run_single_dir("tiny")
    series_complete(fig, ("file_create", "file_stat", "file_remove"),
                    ("lustre", "dufs-lustre"))


def test_cmd_tiny():
    fig = run_cmd_comparison("tiny")
    series_complete(fig, ("dir_create", "dir_stat", "dir_remove"),
                    ("cmd2", "cmd4", "dufs", "lustre"))


def test_ablations_tiny():
    fig = run_ablations("tiny")
    assert any(k.startswith("zk_write/") for k in fig.series)
    assert any(k.startswith("dufs_file_create/") for k in fig.series)
