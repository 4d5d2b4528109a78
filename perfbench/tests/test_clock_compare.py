"""Reference-speed rescaling and the ledger comparison verdicts."""

import pytest

from perfbench import clock, compare
from perfbench.metrics import BY_NAME


def test_reference_loop_is_fixed_work():
    assert clock.reference_loop() == 20 * 40


def test_slices_are_rescaled_by_their_own_local_speed():
    watch = clock.Stopwatch()
    # One slice at reference speed, one on a machine running 2x slow.
    watch.slices = [(1.0, clock.REFERENCE_S, clock.REFERENCE_S),
                    (2.0, 2 * clock.REFERENCE_S, 2 * clock.REFERENCE_S)]
    assert watch.raw_s == pytest.approx(3.0)
    assert watch.reference_s == pytest.approx(2.0)


def test_stopwatch_records_one_slice_per_mark():
    watch = clock.Stopwatch()
    watch.start()
    watch.mark()
    watch.stop()
    assert len(watch.slices) == 2
    assert all(work >= 0 and ref > 0 for work, ref, _ in watch.slices)


def test_verdicts():
    ops, wall = BY_NAME["file_create_ops_s"], BY_NAME["wall_s"]
    layer = BY_NAME["fuse.self_us.file_create"]
    assert compare.verdict(ops, 100.0, 100.0) == "same"
    assert compare.verdict(ops, 100.0, 100.5) == "better"      # exact, higher
    assert compare.verdict(ops, 100.0, 99.5) == "worse"
    assert compare.verdict(ops, 100.0, 100.0 * (1 - 2 * ops.bound)) \
        == "REGRESSED"
    assert compare.verdict(wall, 10.0, 10.5) == "within bound"
    assert compare.verdict(wall, 10.0, 10.0 * (1 + 2 * wall.bound)) \
        == "REGRESSED"
    assert compare.verdict(wall, 10.0, 5.0) == "better"
    assert compare.verdict(wall, 10.0, 14.0, spread=wall.bound + 0.1) \
        == "unresolved"
    assert compare.verdict(layer, 145.0, 150.0) == "changed"


def test_rows_cover_every_end_to_end_metric_and_only_changed_layers():
    def ledger(wall, fuse):
        e2e = {m: 1.0 for m, d in BY_NAME.items() if d.bound is not None}
        e2e["wall_s"] = wall
        layers = {m: 1.0 for m, d in BY_NAME.items() if d.bound is None}
        layers["fuse.self_us.file_create"] = fuse
        return {"workloads": {"paper-lat": {
            "end_to_end": e2e, "per_layer": layers,
            "repeats": {"wall_s": [wall, wall * 1.01]}}}}
    a, b = ledger(2.0, 145.0), ledger(2.1, 150.0)
    e2e_rows = list(compare.rows(a, b, layers=False))
    assert len(e2e_rows) == 14
    assert [r[-1] for r in e2e_rows if r[1] == "wall_s"] == ["within bound"]
    layer_rows = list(compare.rows(a, b, layers=True))
    assert [(r[1], r[-1]) for r in layer_rows] \
        == [("fuse.self_us.file_create", "changed")]
