"""The ``repro shardmap`` subcommand: inspect the elastic metadata plane.

Runs a short, deliberately skewed workload on an elastic DUFS deployment
(two bursts whose hot directories collide onto one shard each, so the
autoscaler has something to do) and dumps the control-plane state the
operator of a real deployment would ask for:

- the **current shard map** — epoch, placement strategy, subtree pins;
- the **epoch history** — every installed map with its reason
  (``split /hot -> s2``, ``merge /hot``), i.e. the audit trail of how
  routing got here;
- the **per-shard load** — each shard's writes/s over the autoscaler's
  last tick, the same signal it decides on;
- **migrations** — in-flight records (root, src/dst shard, state) and
  the completed tally, plus the autoscaler's full decision journal.

``--json`` exports the same document machine-readably (``-`` to stdout).
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core.fs import build_dufs_deployment
from ..models.params import ElasticParams, SimParams
from ..workloads.driver import run_phase
from .elastic_bench import colliding_dirs

_SCALES = {
    # scale -> (n_client_nodes, n_procs, dirs_per_burst, items)
    "quick": (4, 16, 4, 40),
    "medium": (8, 32, 6, 60),
    "full": (8, 64, 8, 80),
}


def run_shardmap_demo(scale: str = "quick") -> Dict:
    """Drive the skewed two-burst workload and return the state document."""
    n_clients, n_procs, dirs_per_burst, items = _SCALES[scale]
    elastic = ElasticParams.elastic_on(
        interval=0.05, cooldown=0.2, min_window_ops=24,
        moves_per_tick=8, drain=0.0)
    dep = build_dufs_deployment(
        n_zk=8, n_backends=2, n_client_nodes=n_clients, backend="local",
        params=SimParams(elastic=elastic), n_shards=4)
    sim = dep.cluster.sim
    nodes = [dep.node_for(p) for p in range(n_procs)]
    bursts = {"A": colliding_dirs(0, dirs_per_burst, "a"),
              "B": colliding_dirs(1, dirs_per_burst, "b")}

    def scaffold():
        m = dep.mount_for(0)
        for d in bursts["A"] + bursts["B"]:
            yield from m.mkdir(d)
    run_phase(sim, "scaffold", [nodes[0]], [scaffold()], 0)

    def worker(period: str, p: int):
        m = dep.mount_for(p)
        dirs = bursts[period]
        for i in range(items):
            d = dirs[(p + i) % len(dirs)]
            yield from m.create(f"{d}/f.{p}.{i}")
            yield from m.stat(f"{d}/f.{p}.{i}")
    for period in ("A", "B"):
        sim.run(until=sim.now + 0.05)
        run_phase(sim, f"burst-{period}", nodes,
                  [worker(period, p) for p in range(n_procs)], items)

    registry = dep.registry
    cur = registry.current
    rates = dep.autoscaler.shard_load
    return {
        "benchmark": "shardmap",
        "scale": scale,
        "map": {
            "epoch": cur.epoch,
            "strategy": cur.strategy,
            "n_shards": cur.n_shards,
            "pins": dict(cur.subtrees),
        },
        "history": [
            {"epoch": epoch, "reason": reason,
             "pins": dict(shard_map.subtrees)}
            for epoch, shard_map, reason in registry.history],
        "shard_load": {str(k): rates.get(k, 0.0)
                       for k in range(cur.n_shards)},
        "migrations": {
            "in_flight": [
                {"root": m.root, "src": m.src, "dst": m.dst,
                 "state": m.state, "merge": m.merge}
                for m in registry.migrations],
            "completed": len(registry.completed),
            "stats": dict(dep.migrator.stats),
        },
        "autoscaler": dep.autoscaler.report(),
    }


def render_shardmap(doc: Dict) -> str:
    m = doc["map"]
    pins = ", ".join(f"{root} -> s{shard}"
                     for root, shard in sorted(m["pins"].items())) \
        or "(none)"
    lines = [
        f"shard map: epoch {m['epoch']}, strategy {m['strategy']}, "
        f"{m['n_shards']} shards",
        f"  pins: {pins}",
        "",
        "epoch history:",
    ]
    for entry in doc["history"]:
        lines.append(f"  e{entry['epoch']:<3} {entry['reason']:<24} "
                     f"({len(entry['pins'])} pins)")
    lines += ["", "per-shard load (writes/s over the last tick):"]
    for k, rate in sorted(doc["shard_load"].items(), key=lambda kv: kv[0]):
        lines.append(f"  s{k}: {rate:>10,.0f}")
    mig = doc["migrations"]
    stats = mig["stats"]
    lines += ["",
              f"migrations: {stats['splits']} splits / "
              f"{stats['merges']} merges / {stats['aborted']} aborted, "
              f"{stats['entries_copied']} entries copied, "
              f"{len(mig['in_flight'])} in flight"]
    for rec in mig["in_flight"]:
        kind = "merge" if rec["merge"] else "split"
        lines.append(f"  [in-flight] {kind} {rec['root']} "
                     f"s{rec['src']}->s{rec['dst']} ({rec['state']})")
    auto = doc["autoscaler"]
    lines += ["", f"autoscaler: {auto['ticks']} ticks, "
                  f"{len(auto['decisions'])} decisions:"]
    for d in auto["decisions"]:
        lines.append(f"  t={d['t']:.2f} {d['action']:<5} {d['root']:<8} "
                     f"s{d['src']}->s{d['dst']} {d['note']}")
    return "\n".join(lines)


def run_shardmap(scale: str = "quick",
                 json_path: Optional[str] = None) -> str:
    """Entry point for ``repro shardmap``: run the demo, format the dump."""
    doc = run_shardmap_demo(scale=scale)
    if json_path == "-":
        return json.dumps(doc, indent=2, sort_keys=True)
    out = render_shardmap(doc)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out += f"\n\n[json] {json_path}"
    return out
