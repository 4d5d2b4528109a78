"""Shard-scaling benchmark: the metadata write ceiling as a scaling axis.

The paper's Fig. 7/8 limitation — one ZooKeeper ensemble scales reads
with server count but *degrades* writes, because every mutation pays one
quorum round over the whole replica group — is exactly what the sharded
metadata service removes. This benchmark runs the same mdtest workload at
a fixed TOTAL ZooKeeper server budget split into 1, 2, and 4 independent
ensembles (1x8 / 2x4 / 4x2), so the comparison is at equal hardware: the
win comes purely from (a) smaller quorums per write and (b) N leaders
committing in parallel.

The create phases are the gate: hash-of-parent placement keeps mdtest
creates shard-local, so ``file_create`` throughput should scale
near-linearly until client-side work dominates. CI reruns the sweep
against ``benchmarks/BENCH_shard.json`` and fails if 4 shards stop
clearing 1.5x over 1 shard or lose on ``dir_create`` (:func:`floors`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.fs import build_dufs_deployment
from ..models.params import SimParams
from ..workloads.mdtest import MdtestConfig, run_mdtest

_SCALES = {
    # scale -> (n_zk_total, n_client_nodes, n_procs, items_per_proc)
    "quick": (8, 4, 8, 20),
    "medium": (8, 8, 32, 40),
    "full": (16, 8, 64, 80),
}

#: Phases measured; the create phases are the scaling claim.
PHASES = ("dir_create", "file_create", "file_stat", "file_remove")

#: The gates, (phase, floor x 1-shard) at the largest shard count:
#: file_create must scale, and two-copy mkdir must not lose.
GATES = (("file_create", 1.5), ("dir_create", 1.0))


def _run_one(n_shards: int, scale: str) -> Dict:
    n_zk, n_clients, n_procs, items = _SCALES[scale]
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=2,
                                n_client_nodes=n_clients, backend="local",
                                params=SimParams(), n_shards=n_shards)
    cfg = MdtestConfig(n_procs=n_procs, items_per_proc=items, phases=PHASES)
    result = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
    servers_per_shard = max(1, n_zk // n_shards)
    doc = {
        "n_shards": n_shards,
        "servers_per_shard": servers_per_shard,
        "phases": {name: {"ops": r.ops, "duration": r.duration,
                          "ops_per_s": r.throughput}
                   for name, r in result.phases.items()},
    }
    if n_shards > 1:
        svc = dep.clients[0].zk
        doc["mds"] = {k: sum(c.zk.stats[k] for c in dep.clients)
                      for k in svc.stats}
    return doc


def run(scale: str = "quick",
        shard_counts: Sequence[int] = (1, 2, 4)) -> Dict:
    """Run the sweep; returns a JSON-ready result document."""
    n_zk, n_clients, n_procs, items = _SCALES[scale]
    runs = {str(n): _run_one(n, scale) for n in shard_counts}
    base = runs[str(shard_counts[0])]
    doc = {
        "benchmark": "shard_scaling",
        "scale": scale,
        "n_zk_total": n_zk,
        "n_procs": n_procs,
        "items_per_proc": items,
        "shards": runs,
        "speedup_vs_1": {
            str(n): {
                name: (runs[str(n)]["phases"][name]["ops_per_s"]
                       / base["phases"][name]["ops_per_s"]
                       if base["phases"][name]["ops_per_s"] else 0.0)
                for name in PHASES
            }
            for n in shard_counts
        },
    }
    return doc


def render(doc: Dict) -> str:
    counts = sorted(doc["shards"], key=int)
    lines = [f"shard scaling (scale={doc['scale']}, "
             f"{doc['n_zk_total']} ZK servers total, "
             f"{doc['n_procs']} procs x {doc['items_per_proc']} items):",
             f"  {'phase':<12} " + " ".join(
                 f"{n + ' shard(s)':>14}" for n in counts)
             + f" {'speedup':>8}"]
    last = counts[-1]
    for name in PHASES:
        cells = " ".join(
            f"{doc['shards'][n]['phases'][name]['ops_per_s']:>14,.0f}"
            for n in counts)
        lines.append(f"  {name:<12} {cells} "
                     f"{doc['speedup_vs_1'][last][name]:>7.2f}x")
    for phase, floor in GATES:
        gate = doc["speedup_vs_1"][last][phase]
        lines.append(f"  gate: {phase} at {last} shards = {gate:.2f}x "
                     f"(floor {floor}x)")
    return "\n".join(lines)


def tracked(doc: Dict) -> Dict[str, float]:
    """Per-configuration throughput of every phase."""
    return {f"{name} @ {n} shard(s)": phase["ops_per_s"]
            for n, cell in doc.get("shards", {}).items()
            for name, phase in cell.get("phases", {}).items()}


def floors(doc: Dict) -> List[Tuple[str, float, float]]:
    """The scaling floors at the largest shard count."""
    top = max(doc["shards"], key=int)
    return [(f"{phase} {top}-shard speedup",
             doc["speedup_vs_1"][top][phase], floor)
            for phase, floor in GATES]


def rerun(baseline: Dict) -> Dict:
    """Re-run the shard counts the baseline recorded."""
    counts = sorted(int(n) for n in baseline.get("shards", {}))
    return {"shard_counts": counts} if counts else {}
