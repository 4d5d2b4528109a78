"""``scripts/phase_layers.py`` on a tiny traced ledger pass: for every
phase, its layer columns sum to the mean root-span duration."""

import pathlib
import runpy
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
worker = pytest.importorskip("perfbench.worker")
SCRIPT = runpy.run_path(str(ROOT / "scripts" / "phase_layers.py"))
PHASES = ("dir_create", "dir_stat", "dir_remove",
          "file_create", "file_stat", "file_remove")


@pytest.fixture(scope="module")
def spans(tmp_path_factory):
    path = tmp_path_factory.mktemp("spans") / "paper-lat.jsonl.gz"
    result = worker.run({"workload": "paper-lat", "seed": 1, "scale": "tiny",
                         "mode": "traced", "spans_out": str(path),
                         "spawned_at": time.monotonic(),
                         "speed_before": worker.REFERENCE_S})
    assert result["failed"] == 0 and all(result["checks"].values())
    return path


@pytest.mark.parametrize("phase", PHASES)
def test_columns_sum_to_the_mean_root_span(spans, phase):
    ops, per_op, mean_root = SCRIPT["phase_layers"](str(spans), phase)
    assert ops == 32                    # 8 processes x 4 items at tiny
    assert set(per_op) == set(SCRIPT["COLUMNS"])
    assert "zk.server" in per_op and mean_root > 0
    assert sum(per_op.values()) == pytest.approx(mean_root, rel=0.02)


def test_a_file_remove_waits_for_no_back_end_call(spans):
    """The reclaim's back-end unlink is a root span of its own, so no
    ``file_remove`` op is charged any ``pfs`` time."""
    _, per_op, _ = SCRIPT["phase_layers"](str(spans), "file_remove")
    assert per_op["pfs"] == 0.0


@pytest.mark.parametrize("phase, layers", [
    ("file_stat", ["pfs"]),         # each hinted stat's back-end stat
    ("file_remove", ["pfs"]),       # each unlink's reclaim
    ("dir_create", []),
])
def test_root_spans_an_op_starts_are_listed_beside_the_columns(spans, phase,
                                                               layers):
    """paper-lat's processes stat the files they created, so every file
    stat starts its back-end stat beside the znode read: one detached
    ``pfs`` root span per op, and no ``pfs`` time in the columns."""
    detached = SCRIPT["detached_roots"](str(spans), phase)
    assert list(detached) == layers
    for count, mean_us in detached.values():
        assert count == 32 and mean_us > 0
    assert SCRIPT["phase_layers"](str(spans), phase)[1]["pfs"] == 0.0


def test_each_file_create_starts_its_mounts_next_spare(spans):
    """paper-lat runs one process per mount, so each of its creates takes
    the spare its previous create started and starts the next: one
    detached ``pfs`` root span per op. Only a mount's first create (8 of
    the 32) makes its own file inline, so the ``pfs`` column holds a
    quarter of a back-end create per op."""
    detached = SCRIPT["detached_roots"](str(spans), "file_create")
    assert list(detached) == ["pfs"]
    count, mean_us = detached["pfs"]
    assert count == 32 and mean_us > 0
    pfs = SCRIPT["phase_layers"](str(spans), "file_create")[1]["pfs"]
    assert 0 < pfs < mean_us / 2
