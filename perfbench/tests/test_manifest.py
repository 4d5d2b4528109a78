"""``BENCHMARK.json`` stays in step with the code and inside the driver's
limits."""

import json
import os
import re

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as fh:
        return json.load(fh)


def test_manifest_matches_the_catalogue():
    m = _manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert m["command"] == ["python3", "perfbench/run.py"]
    assert m["paths"] == ["perfbench"]
    assert m["workloads"] == [{"name": w.name, "why": w.why}
                              for w in WORKLOADS]
    assert m["end_to_end"] == [{"name": x.name, "unit": x.unit,
                                "better": x.better, "bound": x.bound}
                               for x in END_TO_END]
    assert m["per_layer"] == [{"name": x.name, "unit": x.unit,
                               "better": x.better} for x in PER_LAYER]


def test_manifest_is_inside_the_contract_limits():
    m = _manifest()
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in m[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for x in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(x["unit"]) and x["better"] in ("lower", "higher")
    assert all(0 < x["bound"] <= 0.25 for x in m["end_to_end"])
    setup = [x for x in m["end_to_end"] if x["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(x["bound"] for x in m["end_to_end"])}]
    # 4 + 22 runs per workload must fit the driver's 3,420 s.
    assert (4 + 22 * len(m["workloads"])) * 25 <= 3420
