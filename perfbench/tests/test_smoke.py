"""End to end at ``--scale tiny``: every workload, every pass, every metric
name of ``BENCHMARK.json``."""

import json
import os
import time

from perfbench import runner
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_all_six_workloads_emit_every_metric_in_under_20_s():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    started = time.monotonic()
    for w in WORKLOADS:
        result = runner.measure(w.name, seed=1, seconds=0.0, scale="tiny",
                                layers=True)
        assert result["correct"], (w.name, result["checks"])
        assert result["failed"] == 0
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(runner.contract_line(result, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"]
                                             for m in manifest[section]]
            for m in manifest[section]:
                got = line["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))
        assert all(v > 0 for v in result["end_to_end"].values())
    assert time.monotonic() - started < 20.0
