"""The committed ledgers hold every metric, pass every check, and still show
the smells the benchmark was built to keep on the record."""

import json
import os

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

RESULTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "results")


def _ledger(name):
    with open(os.path.join(RESULTS, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,seed", [("baseline.json", 1),
                                       ("seed2.json", 2)])
def test_committed_ledger_is_complete_and_correct(name, seed):
    ledger = _ledger(name)
    assert ledger["seed"] == seed and ledger["scale"] == "std"
    assert set(ledger["workloads"]) == {w.name for w in WORKLOADS}
    for row in ledger["workloads"].values():
        assert row["correct"] and all(row["checks"].values())
        assert row["failed"] == 0
        assert set(row["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(row["per_layer"]) == {m.name for m in PER_LAYER}
        assert all(v > 0 for v in row["end_to_end"].values())


@pytest.mark.parametrize("name", ["baseline.json", "seed2.json"])
def test_ledger_reproduces_the_recorded_smells(name):
    w = _ledger(name)["workloads"]

    def e2e(workload, metric):
        return w[workload]["end_to_end"][metric]

    def layer(workload, metric):
        return w[workload]["per_layer"][metric]

    # Sharding slows an unloaded dir_create.
    assert e2e("sharded-lat", "dir_create_ops_s") \
        < e2e("paper-lat", "dir_create_ops_s")
    # Write-behind acks faster at the median and pays for it in the tail.
    assert e2e("async-lat", "file_create_p50_us") \
        < e2e("paper-lat", "file_create_p50_us")
    assert e2e("async-lat", "file_create_p99_us") \
        >= 3 * e2e("async-lat", "file_create_p50_us")
    # Each mechanism runs on its own workload and nowhere else.
    assert layer("hotread-cached", "core.mdcache.hit_ratio") > 0
    for cache_off in ("paper-sat", "paper-lat", "sharded-lat", "failover"):
        assert layer(cache_off, "core.mdcache.hit_ratio") == 0
    for name_, row in w.items():
        elections = row["per_layer"]["zk.election.count"]
        assert (elections >= 1) == (name_ == "failover")
    # Pure-Python md5 is what the sharded arm spends its host time on.
    assert layer("sharded-lat", "host.self_pct.hashing") \
        >= 3 * layer("paper-lat", "host.self_pct.hashing")
