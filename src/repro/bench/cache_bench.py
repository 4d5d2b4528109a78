"""Cache ablation: the client-side metadata cache, on vs. off.

Runs the same metadata-read workload twice on identical
deployments — once with the default (disabled) cache policy and once with
:meth:`~repro.models.params.CacheParams.caching_on` — and reports the
per-phase simulated throughput plus the cache's own hit/coalesce
counters. The workload is the read-heavy traffic the cache targets:

- ``stat_hot``   — every process stats a shared working set of file
  paths ``repeat`` times (re-resolution of hot paths, the FalconFS /
  λFS pattern; one process per client node, so rounds after the first
  are pure client-local hits);
- ``stat_shared`` — many processes per node stat the same paths
  *concurrently* (exercises read coalescing: one in-flight RPC per
  path per client, everyone else piggybacks);
- ``ls_l``       — readdir + stat of every entry (``ls -l``): the
  listing is cached with a child watch and the readdir-plus child
  lookups piggyback the stats, so the second sweep is RPC-free.

This module is the workload; the off/on harness around it (run both
sides, speedup table, JSON, CI gate) is :func:`repro.bench.suite.ablation`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from ..core.fs import build_dufs_deployment
from ..core.mdcache import aggregate_counters
from ..models.params import CacheParams, SimParams
from ..workloads.driver import run_phase

_SCALES = {
    # scale -> (n_zk, n_client_nodes, n_dirs, files_per_dir, procs, repeat)
    "quick": (3, 4, 4, 12, 8, 3),
    "medium": (8, 8, 8, 24, 32, 3),
    "full": (8, 8, 16, 64, 64, 4),
}

PHASES = ("stat_hot", "stat_shared", "ls_l")


def run_side(on: bool, scale: str) -> Dict:
    """One full run (scaffold + three measured phases) with the cache on
    (:meth:`CacheParams.caching_on`) or at the default, disabled policy.

    Measured phases drive the DUFS client library directly (not the FUSE
    mount): the kernel-crossing cost is a constant paid identically by
    both configurations and is not what the cache targets, so including
    it would only dilute the ablation signal.
    """
    n_zk, n_clients, n_dirs, files_per_dir, procs, repeat = _SCALES[scale]
    dep = build_dufs_deployment(
        n_zk=n_zk, n_backends=2, n_client_nodes=n_clients, backend="local",
        params=SimParams(),
        cache=CacheParams.caching_on() if on else None)
    sim = dep.cluster.sim
    dirs = [f"/d{i}" for i in range(n_dirs)]
    files = [f"{d}/f{j}" for d in dirs for j in range(files_per_dir)]
    hot = dirs + files                       # mdtest stats dirs AND files
    cold_dirs = [f"/c{i}" for i in range(n_dirs)]
    cold = [f"{d}/f{j}" for d in cold_dirs for j in range(files_per_dir)]

    def client_for(p: int):
        return dep.clients[p % len(dep.clients)]

    # ---- scaffold (not measured) ------------------------------------
    def scaffold() -> Generator:
        c = dep.clients[0]
        for d in dirs + cold_dirs:
            yield from c.mkdir(d)
        for path in files + cold:
            yield from c.create(path)

    sim.run(until=dep.client_nodes[0].spawn(scaffold()))
    sim.run(until=sim.now + 0.05)  # replica settle (cf. mdtest barriers)

    nodes = [dep.node_for(i) for i in range(procs)]
    results = {}

    # ---- stat_hot: one proc per node, repeat passes over the set ----
    def hot_worker(p: int) -> Generator:
        c = client_for(p)
        for _ in range(repeat):
            for path in hot:
                yield from c.stat(path)

    workers = [hot_worker(p) for p in range(n_clients)]
    results["stat_hot"] = run_phase(
        sim, "stat_hot", [dep.node_for(i) for i in range(n_clients)],
        workers, repeat * len(hot))

    # ---- stat_shared: many procs per node hammer a COLD set ---------
    # Round 1 is cold and concurrent: same-path misses on one node
    # exercise read coalescing (node-mates piggyback the first process's
    # in-flight RPC instead of issuing their own). Later rounds are hot.
    def shared_worker(p: int) -> Generator:
        c = client_for(p)
        for _ in range(repeat):
            for path in cold:
                yield from c.stat(path)

    sim.run(until=sim.now + 0.05)
    results["stat_shared"] = run_phase(
        sim, "stat_shared", nodes,
        [shared_worker(p) for p in range(procs)], repeat * len(cold))

    # ---- ls_l: readdir + stat every entry, two sweeps ---------------
    def lsl_worker(p: int) -> Generator:
        c = client_for(p)
        for _ in range(2):
            for d in dirs:
                entries = yield from c.readdir(d)
                for e in entries:
                    yield from c.stat(f"{d}/{e.name}")

    sim.run(until=sim.now + 0.05)
    results["ls_l"] = run_phase(
        sim, "ls_l", [dep.node_for(i) for i in range(n_clients)],
        [lsl_worker(p) for p in range(n_clients)],
        2 * (n_dirs + len(files)))

    counters = aggregate_counters([c.mdcache for c in dep.clients])
    lookups = counters["hits"] + counters["misses"] + counters["coalesced"]
    return {
        "phases": {name: {"ops": r.ops, "duration": r.duration,
                          "ops_per_s": r.throughput}
                   for name, r in results.items()},
        "cache": dict(counters),
        "hit_rate": counters["hits"] / lookups if lookups else 0.0,
        "zk_reads": sum(c.stats["zk_reads"] for c in dep.clients),
    }


def footer(doc: Dict) -> str:
    c = doc["on"]["cache"]
    return (f"  cache-on: hit-rate {doc['on']['hit_rate']:.1%} "
            f"(hits={c['hits']} misses={c['misses']} "
            f"coalesced={c['coalesced']} "
            f"listings={c['listing_hits']}/{c['listing_hits'] + c['listing_misses']}), "
            f"zk reads {doc['on']['zk_reads']} vs "
            f"{doc['off']['zk_reads']} uncached")


def floors(doc: Dict) -> List[Tuple[str, float, float]]:
    """The 2x acceptance floor on the two stat phases (``ls_l`` is
    tracked against the baseline but not floored)."""
    return [(f"{name} cache speedup", doc["speedup"][name], 2.0)
            for name in ("stat_hot", "stat_shared")]
