"""Resilience overload campaign: arm harness + table (its CI gate is
exercised with the other six in ``test_suite_registry.py``)."""

from repro.bench.resilience_bench import GOODPUT_FLOOR, _run_arm, render


def make_cell(goodput_off, goodput_on, load=2.0):
    def arm(goodput, resilient):
        return {
            "load": load, "resilient": resilient, "offered_ops_s": 1000.0,
            "issued": 4000, "ok": int(goodput * 4), "err": 0,
            "goodput_ops_s": goodput, "success_rate": goodput / 1000.0,
            "latency_p95": 0.05,
            "server": {"served": 100, "expired": 5},
            "clients": {"retry_tokens_spent": 10, "retries_denied": 3,
                        "breaker_trips": 2, "breaker_fastfails": 7},
        }
    return {"off": arm(goodput_off, False), "on": arm(goodput_on, True)}


def make_doc(goodput_off=100.0, goodput_on=300.0):
    return {
        "benchmark": "resilience_overload", "scale": "quick",
        "duration": 4.0, "n_clients": 4, "capacity_ops_s": 500.0,
        "fault": {}, "resilience_on": {},
        "loads": {"2.0": make_cell(goodput_off, goodput_on)},
        "gate": {"load": "2.0", "goodput_off": goodput_off,
                 "goodput_on": goodput_on,
                 "on_over_off": goodput_on / goodput_off,
                 "floor": GOODPUT_FLOOR},
    }


def test_render_mentions_gate_and_arms():
    text = render(make_doc())
    assert "gate:" in text and " off " in text and " on " in text
    assert "3.00x" in text                 # the on/off ratio


def test_arm_harness_structure_and_baseline_health(streams_opened):
    """A short real run of one arm: structural keys + sanity. At a load
    well under the knee every issued op must succeed in either arm."""
    r = _run_arm(load=0.3, resilient=False, duration=0.5, n_clients=2)
    assert r["issued"] > 0 and r["ok"] == r["issued"]
    assert r["success_rate"] == 1.0
    assert r["server"]["served"] >= r["ok"]
    on = _run_arm(load=0.3, resilient=True, duration=0.5, n_clients=2)
    # Below the knee the resilience layer must not change the outcome.
    assert on["ok"] == r["ok"] and on["latency_p95"] == r["latency_p95"]
    assert on["clients"]["breaker_trips"] == 0
    assert streams_opened == []             # no failure, no jitter drawn
