"""Measurement helpers: counters, latency summaries."""

import pytest

from repro.sim import Counter, LatencyRecorder, percentile


def test_counter_inc_and_get():
    c = Counter()
    c.inc("ops")
    c.inc("ops", 4)
    assert c.get("ops") == 5
    assert c.get("missing") == 0
    assert c.as_dict() == {"ops": 5}


def test_latency_recorder_summary():
    r = LatencyRecorder()
    for i in range(1, 101):
        r.record("stat", i / 1000.0)
    s = r.summary("stat")
    assert s.count == 100
    assert s.mean == pytest.approx(0.0505)
    # Linear interpolation between ranks: p * (n - 1) = 49.5 for p50.
    assert s.p50 == pytest.approx(0.0505)
    assert s.p95 == pytest.approx(0.09505)
    assert s.p99 == pytest.approx(0.09901)
    assert s.max == pytest.approx(0.100)


def test_percentile_interpolates_between_ranks():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 0.0) == 1.0
    assert percentile(xs, 1.0) == 4.0
    assert percentile(xs, 0.5) == pytest.approx(2.5)
    assert percentile(xs, 0.25) == pytest.approx(1.75)
    assert percentile([7.0], 0.99) == 7.0


def test_latency_recorder_empty_key():
    assert LatencyRecorder().summary("none") is None
