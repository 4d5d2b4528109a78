"""The ``repro trace`` subcommand: one traced mdtest run, full op metrics.

Builds a DUFS deployment with the unified trace bus enabled, drives a
small mdtest workload through it, and prints per-endpoint op / error /
retry counts and service times for every layer — DUFS client entry points,
the ZK client retry path, and every server endpoint (ZooKeeper and the
back-end filesystems). ``--cache`` enables the client metadata cache,
whose hit/miss/invalidation counters then appear as ``mdcache/*`` rows in
the same table.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..core.fs import build_dufs_deployment
from ..core.mdcache import aggregate_counters
from ..models.params import CacheParams
from ..svc import TraceBus
from ..workloads.mdtest import MdtestConfig, run_mdtest

_SCALES = {
    # scale -> (n_zk, n_backends, n_client_nodes, n_procs, items_per_proc)
    "quick": (3, 2, 4, 8, 20),
    "medium": (8, 2, 8, 32, 40),
    "full": (8, 4, 8, 64, 100),
}


def trace_rows(bus: TraceBus) -> List[Dict]:
    """The trace table as machine-readable rows: one dict per
    deployment/endpoint.method key, metrics plus the serving shard."""
    rows = []
    for key, metrics in bus.as_dict().items():
        deployment, rest = key.split("/", 1)
        endpoint, method = rest.rsplit(".", 1)
        rows.append({"deployment": deployment, "endpoint": endpoint,
                     "method": method, **metrics})
    return rows


def run_trace(scale: str = "quick", backend: str = "local",
              phases: Optional[tuple] = None,
              cache: bool = False, shards: int = 1,
              json_path: Optional[str] = None) -> str:
    """Run one traced mdtest and return the formatted report.

    ``json_path`` additionally exports the per-endpoint/per-shard rows
    (:func:`trace_rows`) plus the phase throughputs as JSON for tooling —
    ``"-"`` returns the JSON document *instead of* the table.
    """
    n_zk, n_backends, n_clients, n_procs, items = _SCALES[scale]
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=n_backends,
                                n_client_nodes=n_clients, backend=backend,
                                bus=TraceBus(),
                                cache=CacheParams.caching_on() if cache
                                else None, n_shards=shards)
    cfg = MdtestConfig(n_procs=n_procs, items_per_proc=items,
                       phases=phases or ("dir_create", "dir_stat",
                                         "dir_remove"))
    result = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)

    # Whole-run per-shard ZooKeeper op rates: each shard's share of the
    # load, from the trace rows' op counts.
    elapsed = dep.cluster.sim.now
    rows = trace_rows(dep.bus)
    shard_ops: Dict[int, int] = {}
    for row in rows:
        if row["deployment"] == "zk":
            shard_ops[row["shard"]] = shard_ops.get(row["shard"], 0) \
                + row["ops"]
    shard_rates = {k: n / elapsed for k, n in shard_ops.items()}
    doc = {
        "benchmark": "trace",
        "scale": scale, "backend": backend,
        "n_zk": n_zk, "n_shards": shards,
        "cache": cache,
        "phases": {name: {"ops": r.ops, "duration": r.duration,
                          "ops_per_s": r.throughput}
                   for name, r in result.phases.items()},
        "shard_rates": {str(k): v for k, v in sorted(shard_rates.items())},
        "shard_rate_window": elapsed,
        "rows": rows,
    }
    if json_path == "-":
        return json.dumps(doc, indent=2, sort_keys=True)

    lines = [f"traced mdtest: backend={backend} scale={scale} "
             f"zk={n_zk} procs={n_procs} items/proc={items}"
             f"{' cache=on' if cache else ''}"
             f"{f' shards={shards}' if shards > 1 else ''}", ""]
    for name, phase in result.phases.items():
        lines.append(f"  {name:<12s} {phase.throughput:10.1f} ops/s")
    if shards > 1 and shard_rates:
        shares = "  ".join(f"s{k}={v:,.0f}"
                           for k, v in sorted(shard_rates.items()))
        lines += ["", f"  per-shard ZK op rate (ops/s): {shares}"]
    lines += ["", dep.bus.table()]
    if cache:
        counters = aggregate_counters([c.mdcache for c in dep.clients])
        pairs = " ".join(f"{k}={v}" for k, v in counters.items() if v)
        lines += ["", f"mdcache counters: {pairs or '(no activity)'}"]
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines += ["", f"[json] {json_path}"]
    return "\n".join(lines)
