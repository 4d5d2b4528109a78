"""TraceBus aggregation, OpTrace arithmetic, export surfaces."""

import pytest

from repro.svc import NULL_BUS, NullBus, OpTrace, TraceBus


def ev(method="op", arrive=0.0, start=0.5, end=2.0, ok=True, retries=0):
    return OpTrace("dep", "ep", method, arrive, start, end, ok,
                   retries=retries)


def test_optrace_derived_metrics():
    t = ev()
    assert t.service == pytest.approx(1.5)
    assert t.key == "dep/ep.op"


def test_bus_aggregates_by_key():
    bus = TraceBus()
    bus.record(ev())
    bus.record(ev(ok=False, retries=2))
    bus.record(ev(method="other"))
    assert bus.keys() == ["dep/ep.op", "dep/ep.other"]
    assert bus.ops.get("dep/ep.op") == 2
    assert bus.errors.get("dep/ep.op") == 1
    assert bus.retries.get("dep/ep.op") == 2
    assert bus.service.summary("dep/ep.op").mean == pytest.approx(1.5)


def test_bus_keep_events_retains_raw_stream():
    bus = TraceBus(keep_events=True)
    events = [ev(), ev(method="b")]
    for e in events:
        bus.record(e)
    assert bus.events == events
    assert TraceBus().events is None


def test_bus_as_dict_and_table():
    bus = TraceBus()
    bus.record(ev())
    d = bus.as_dict()
    row = d["dep/ep.op"]
    assert row["ops"] == 1 and row["errors"] == 0
    assert row["service_mean"] == pytest.approx(1.5)
    text = bus.table()
    assert "dep/ep.op" in text and "endpoint.method" in text


def test_null_bus_discards():
    bus = NullBus()
    bus.record(ev())
    assert not bus.keys() and bus.ops.get("dep/ep.op") == 0
    assert isinstance(NULL_BUS, NullBus)


def test_bus_sample_default_records_everything():
    bus = TraceBus(keep_events=True)
    for _ in range(7):
        bus.record(ev())
    assert bus.service.summary("dep/ep.op").count == 7
    assert len(bus.events) == 7
