"""Client metadata-cache ablation: cache-on vs cache-off, same workload.

Claims asserted here (the cache PR's acceptance bar):
- the hot stat phase is at least 2x faster with the cache on (repeat
  lookups of a warm working set are served client-locally),
- the shared stat phase is at least 2x faster AND actually coalesces
  (concurrent same-path misses on one node share one in-flight RPC),
- ``ls -l`` re-sweeps win from listing + piggybacked-stat caching,
- cache-on resolves the workload with far fewer ZooKeeper reads.

``BENCH_mdcache.json`` next to this file is the CI regression baseline
(``scripts/check_regression.py --suite mdcache``); refresh it with the
suite's one refresh command, ``python -m repro bench --json
benchmarks/BENCH_mdcache.json``.
"""

import json
import pathlib

from repro.bench import SUITES

from .conftest import run_once

MDCACHE = SUITES["mdcache"]
BASELINE = pathlib.Path(__file__).with_name("BENCH_mdcache.json")


def test_cache_ablation(benchmark):
    doc = run_once(benchmark, MDCACHE.run, scale="quick")
    print()
    print(MDCACHE.render(doc))

    # ≥2x simulated stat-phase throughput with the cache on.
    assert doc["speedup"]["stat_hot"] >= 2.0
    assert doc["speedup"]["stat_shared"] >= 2.0
    assert doc["speedup"]["ls_l"] >= 2.0

    # The mechanism, not just the outcome: hits dominate, misses bounded
    # by the working-set size, concurrent cold lookups coalesced.
    on = doc["on"]
    assert on["hit_rate"] > 0.5
    assert on["cache"]["coalesced"] > 0
    assert on["cache"]["listing_hits"] > 0
    assert on["zk_reads"] < doc["off"]["zk_reads"] / 3

    # Cache-off side must report a completely cold cache (default policy
    # records nothing — the byte-identity guarantee's visible face).
    assert all(v == 0 for v in doc["off"]["cache"].values())

    # Determinism guard: a fresh process must reproduce the committed
    # baseline exactly (simulated time, not wall clock).
    if BASELINE.exists():
        base = json.loads(BASELINE.read_text())
        if base.get("scale") == "quick":
            assert doc["on"]["phases"] == base["on"]["phases"]
            assert doc["off"]["phases"] == base["off"]["phases"]
