"""Write-behind ablation: synchronous vs asynchronous metadata updates.

Runs the mdtest file phases twice on identical deployments:

- **off** — the paper's synchronous client: every create/unlink pays the
  full quorum round trip before the application is acked;
- **on**  — write-behind mode (``AsyncParams.async_on()``): mutations
  append to the per-client ordered log (:mod:`repro.core.wblog`), ack
  after ``ack_cpu`` of client CPU, and drain in the background through
  the group-commit Batcher in ``DRAIN_BATCH_MAX``-op batches.

Both arms run with ``propose_batch_max=8`` on the ZooKeeper leader (the
group-commit capacity exists either way — the ablation isolates *who
waits for it*: the sync arm's callers each block a full round trip, the
async arm's drain keeps the pipeline full without blocking callers) and
with ``MdtestConfig.drain=True``, so the async arm's measured phases
include the drain barrier that commits their own mutations — throughput
is end-to-end *committed* ops/s, not just ack/s.

Phases:

- ``file_create`` — the acceptance phase: async throughput must be
  **>= 2x** sync (:func:`floors`; the observed speedup at the
  committed scales is >= 3x, the CI floor leaves noise headroom);
- ``file_remove`` — reported for the record: unlink still pays the
  synchronous payload lookup and physical unlink, so its speedup is
  bounded by the read path, not the ack path.

This module is the workload; the off/on harness around it (run both
sides, speedup table, JSON, CI gate) is :func:`repro.bench.suite.ablation`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.fs import build_dufs_deployment
from ..models.params import AsyncParams, SimParams
from ..workloads.mdtest import MdtestConfig, run_mdtest
from ..workloads.treegen import TreeSpec

_SCALES = {
    # scale -> (n_zk, n_client_nodes, items_per_proc). One mdtest proc
    # per client node: the sync arm is latency-bound, so oversubscribing
    # procs onto nodes would pipeline its round trips and understate the
    # ack-decoupling win the paper-faithful single-proc client sees. The
    # speedup is largest at few clients (sync can't fill the quorum
    # pipeline; the drain can) and shrinks as client concurrency grows —
    # ``full`` sits near the many-client plateau, still above the floor.
    "quick": (3, 2, 60),
    "medium": (5, 4, 80),
    "full": (8, 8, 100),
}

PHASES = ("file_create", "file_remove")

#: Acceptance floor (ISSUE): async file_create throughput vs sync. The
#: target is >= 3x; CI gates at 2x to absorb scheduling noise.
CREATE_FLOOR = 2.0


def _params() -> SimParams:
    """Shared simulation parameters for BOTH arms: leader-side group
    commit is available either way, so the ablation measures ack
    decoupling, not batching."""
    p = SimParams()
    p.zk.propose_batch_max = 8
    return p


def run_side(on: bool, scale: str) -> Dict:
    """One full mdtest run (scaffold + file phases) in write-behind mode
    (:meth:`AsyncParams.async_on`) or as the synchronous default client.

    Measured phases drive the DUFS client library directly (the FUSE
    crossing is a constant paid identically by both arms), which also
    gives the workers the ``flush`` entry point the drain barrier needs.
    """
    n_zk, n_clients, items = _SCALES[scale]
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=2,
                                n_client_nodes=n_clients, backend="local",
                                params=_params(),
                                awrite=AsyncParams.async_on() if on
                                else AsyncParams())
    cfg = MdtestConfig(n_procs=n_clients, items_per_proc=items,
                       tree=TreeSpec(root="/mdtest"), single_dir=True,
                       phases=PHASES, drain=True)
    result = run_mdtest(dep.cluster,
                        lambda i: dep.clients[i % n_clients],
                        dep.node_for, cfg)
    wblog = {"acked": 0, "committed": 0, "rejected": 0, "stalls": 0}
    batch = {"flushes": 0, "items": 0}
    for c in dep.clients:
        if c.wblog is None:
            continue
        for k in wblog:
            wblog[k] += c.wblog.stats[k]
        for k in batch:
            batch[k] += c.wblog.batch_stats.get(k, 0)
    return {
        "phases": {name: {"ops": r.ops, "duration": r.duration,
                          "ops_per_s": r.throughput}
                   for name, r in result.phases.items()},
        "latency_us": {name: {k: getattr(result.latency(name), k) * 1e6
                              for k in ("mean", "p50", "p99")}
                       for name in PHASES},
        "wblog": wblog,
        "drain_batches": batch,
    }


def footer(doc: Dict) -> str:
    w = doc["on"]["wblog"]
    b = doc["on"]["drain_batches"]
    fill = b["items"] / b["flushes"] if b["flushes"] else 0.0
    lat_off = doc["off"]["latency_us"]["file_create"].get("mean", 0.0)
    lat_on = doc["on"]["latency_us"]["file_create"].get("mean", 0.0)
    return (
        f"  async: {w['acked']} acked / {w['committed']} committed / "
        f"{w['rejected']} rejected ({w['stalls']} stalls), drain fill "
        f"{fill:.1f} ops/batch; create latency {lat_off:,.0f}us sync -> "
        f"{lat_on:,.0f}us async ack")


def floors(doc: Dict) -> List[Tuple[str, float, float]]:
    """The ``file_create`` speedup floor, and a clean ablation run must
    not have a single acked write-behind op rejected at drain time."""
    w = doc["on"]["wblog"]
    kept = (w["acked"] - w["rejected"]) / w["acked"] if w["acked"] else 0.0
    return [("file_create async speedup", doc["speedup"]["file_create"],
             CREATE_FLOOR),
            ("share of acked write-behind ops not rejected", kept, 1.0)]
