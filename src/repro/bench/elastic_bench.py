"""Elastic-vs-static benchmark: adaptivity as a throughput multiplier.

The shard-scaling sweep (``shard_bench``) shows a *sharded* metadata
plane beats one big ensemble — but only if load actually spreads across
the shards. This benchmark measures the case the static hash map cannot
fix: a **skewed, shifting** workload. All hot directories of a period
hash onto ONE shard under parent-hash placement (the names are searched
so md5 collides), and the hot set rotates between two periods (A then
B, colliding onto different shards). Per period, clients cycle through
``file_create`` and ``file_stat`` segments against the hot directories.

Four arms run the identical workload at identical hardware (8 ZK
servers as 4 independent 2-server ensembles) and identical pin budget:

- ``hash`` — plain parent-hash placement, no pins: both periods
  serialize on one shard's leader.
- ``tuned-A`` / ``tuned-B`` — the best *static* subtree layouts a
  well-informed operator could pick with the pin budget: period A's (or
  B's) hot directories pinned round-robin over the shards. Perfect for
  one period, useless for the other.
- ``elastic`` — the autoscaler watching windowed per-shard op rates,
  splitting the hot shard's directories away live and merging them back
  when the hot set rotates. Same ``max_pins`` budget as the tuned arms.

The acceptance gate (enforced by ``scripts/check_regression.py --suite
elastic`` in CI): elastic aggregate ``file_create`` AND ``file_stat``
throughput must be at least :data:`SPEEDUP_FLOOR` x the **best** static
arm. The win is pure adaptivity — no extra servers, no extra pins, just
moving them at the right time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.fs import build_dufs_deployment
from ..mds import ShardMap
from ..models.params import ElasticParams, SimParams
from ..workloads.driver import run_phase

_SCALES = {
    # scale -> (n_client_nodes, n_procs, dirs_per_period, cycles, items)
    "quick": (8, 64, 8, 4, 100),
    "medium": (8, 64, 8, 5, 100),
    "full": (8, 96, 8, 6, 100),
}

#: Equal-hardware constants: total ZK budget and how it is sharded.
N_ZK_TOTAL = 8
N_SHARDS = 4
#: Equal-knowledge constant: every arm gets the same pin budget.
PIN_BUDGET = 8

#: The acceptance gate, per measured op kind.
GATED_OPS = ("file_create", "file_stat")
SPEEDUP_FLOOR = 1.3

ARMS = ("hash", "tuned-A", "tuned-B", "elastic")


def colliding_dirs(shard: int, count: int, tag: str,
                   n_shards: int = N_SHARDS) -> List[str]:
    """``count`` top-level directory names whose *children* all hash to
    ``shard`` under parent-hash placement — a worst-case hotspot the
    static map cannot spread."""
    ref = ShardMap(n_shards)
    out: List[str] = []
    i = 0
    while len(out) < count:
        d = f"/h{tag}{i}"
        if ref.child_shard(d) == shard:
            out.append(d)
        i += 1
    return out


def bench_elastic_params() -> ElasticParams:
    """The autoscaler policy used by the elastic arm: tighter clock than
    the defaults (the bench periods are seconds, not minutes) but the
    same hysteresis discipline and the shared PIN_BUDGET."""
    return ElasticParams.elastic_on(
        interval=0.04, window=0.12, hysteresis=2, cooldown=0.2,
        max_pins=PIN_BUDGET, min_window_ops=24, merge_min_ops=4,
        moves_per_tick=PIN_BUDGET, drain=0.0)


def _static_pins(dirs: Sequence[str], n_shards: int = N_SHARDS,
                 budget: int = PIN_BUDGET) -> Dict[str, int]:
    """Round-robin the hot directories over the shards — the best static
    answer for the period those directories dominate."""
    return {d: i % n_shards for i, d in enumerate(list(dirs)[:budget])}


def _build_arm(arm: str, hot: Dict[str, List[str]], n_clients: int):
    pins = None
    autoscale = None
    if arm == "tuned-A":
        pins = _static_pins(hot["A"])
    elif arm == "tuned-B":
        pins = _static_pins(hot["B"])
    elif arm == "elastic":
        autoscale = bench_elastic_params()
    return build_dufs_deployment(
        n_zk=N_ZK_TOTAL, n_backends=2, n_client_nodes=n_clients,
        backend="local", params=SimParams(), n_shards=N_SHARDS,
        shard_subtrees=pins, autoscale=autoscale)


def _run_arm(arm: str, hot: Dict[str, List[str]], scale: str) -> Dict:
    n_clients, n_procs, _dirs, cycles, items = _SCALES[scale]
    dep = _build_arm(arm, hot, n_clients)
    sim = dep.cluster.sim
    nodes = [dep.node_for(p) for p in range(n_procs)]

    # Scaffold both periods' hot directories (unmeasured).
    def scaffold():
        m = dep.mount_for(0)
        for d in hot["A"] + hot["B"]:
            yield from m.mkdir(d)
    run_phase(sim, "scaffold", [nodes[0]], [scaffold()], 0)

    def segment(op: str, period: str, cycle: int, p: int):
        m = dep.mount_for(p)
        dirs = hot[period]
        for i in range(items):
            d = dirs[(p + i) % len(dirs)]
            path = f"{d}/f.{p}.{cycle}.{i}"
            if op == "file_create":
                yield from m.create(path)
            elif op == "file_stat":
                yield from m.stat(path)
            else:
                yield from m.unlink(path)

    # Each cycle is create -> stat -> remove against the period's hot
    # directories, mdtest-style. The remove segment is measured but not
    # gated: its job is realism (steady-state namespaces do not grow
    # without bound) and it keeps subtree moves cheap at every instant.
    ops_total = {op: 0 for op in GATED_OPS}
    time_total = {op: 0.0 for op in GATED_OPS}
    for period in ("A", "B"):
        for cycle in range(cycles):
            for op in GATED_OPS + ("file_remove",):
                sim.run(until=sim.now + 0.05)   # barrier slack
                workers = [segment(op, period, cycle, p)
                           for p in range(n_procs)]
                res = run_phase(sim, f"{period}{cycle}-{op}", nodes,
                                workers, items)
                if op in ops_total:
                    ops_total[op] += res.ops
                    time_total[op] += res.duration

    doc = {
        "arm": arm,
        "throughput": {op: (ops_total[op] / time_total[op]
                            if time_total[op] else 0.0)
                       for op in GATED_OPS},
        "ops": dict(ops_total),
    }
    if arm == "elastic":
        doc["elastic"] = dep.autoscaler.report()
        doc["stale_map_retries"] = sum(s.stats["stale_map_retries"]
                                       for s in dep.services)
    return doc


def run(scale: str = "quick", arms: Sequence[str] = ARMS) -> Dict:
    """Run every arm on the identical workload; returns a JSON-ready doc."""
    n_clients, n_procs, dirs_per_period, cycles, items = _SCALES[scale]
    # Period A's hot set collides onto shard 0, period B's onto shard 1.
    hot = {"A": colliding_dirs(0, dirs_per_period, "a"),
           "B": colliding_dirs(1, dirs_per_period, "b")}
    runs = {arm: _run_arm(arm, hot, scale) for arm in arms}

    static_arms = [a for a in arms if a != "elastic"]
    best_static = {
        op: max((runs[a]["throughput"][op] for a in static_arms),
                default=0.0)
        for op in GATED_OPS
    }
    speedup = {
        op: (runs["elastic"]["throughput"][op] / best_static[op]
             if "elastic" in runs and best_static[op] else 0.0)
        for op in GATED_OPS
    }
    return {
        "benchmark": "elastic",
        "scale": scale,
        "n_zk_total": N_ZK_TOTAL,
        "n_shards": N_SHARDS,
        "pin_budget": PIN_BUDGET,
        "n_procs": n_procs,
        "cycles": cycles,
        "items_per_segment": items,
        "hot_dirs": hot,
        "arms": runs,
        "best_static": best_static,
        "speedup_vs_best_static": speedup,
    }


def render(doc: Dict) -> str:
    lines = [f"elastic plane (scale={doc['scale']}, "
             f"{doc['n_zk_total']} ZK servers as {doc['n_shards']} shards, "
             f"pin budget {doc['pin_budget']}):",
             f"  {'arm':<10} " + " ".join(f"{op:>14}" for op in GATED_OPS)]
    for arm, cell in doc["arms"].items():
        cells = " ".join(f"{cell['throughput'][op]:>14,.0f}"
                         for op in GATED_OPS)
        lines.append(f"  {arm:<10} {cells}")
    for op in GATED_OPS:
        lines.append(f"  gate: {op} elastic/best-static = "
                     f"{doc['speedup_vs_best_static'][op]:.2f}x "
                     f"(floor {SPEEDUP_FLOOR}x)")
    el = doc["arms"].get("elastic", {}).get("elastic")
    if el:
        mig = el["migrator"]
        lines.append(f"  elastic: {el['ticks']} ticks, "
                     f"epoch {el['epoch']}, {mig['splits']} splits / "
                     f"{mig['merges']} merges, "
                     f"{mig['entries_copied']} entries copied")
    return "\n".join(lines)


def tracked(doc: Dict) -> Dict[str, float]:
    """Aggregate throughput of every (arm, gated op) pair."""
    return {f"{op} @ {arm}": thr
            for arm, cell in doc.get("arms", {}).items()
            for op, thr in cell.get("throughput", {}).items()}


def floors(doc: Dict) -> List[Tuple[str, float, float]]:
    """The adaptivity floor: elastic over the best static arm, per op."""
    return [(f"{op} elastic/best-static speedup",
             doc["speedup_vs_best_static"][op], SPEEDUP_FLOOR)
            for op in GATED_OPS]
