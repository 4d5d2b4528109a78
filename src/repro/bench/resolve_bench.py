"""Path-resolution ablation: server-side ``resolve`` vs fat-client walk.

Runs the DL-training workload family (:mod:`repro.workloads.dltrain`)
twice on identical deployments:

- **off** — the legacy *fat client* with an explicit kernel-VFS
  cold-dcache walk (:class:`ColdDcacheWalk`, a baseline that exists only
  in this bench): every lookup pays one znode read per ancestor missing
  from a small LRU dcache, so cost grows with path depth and the dcache
  churns on namespaces bigger than its bound;
- **on** — the *thin client* (``ResolveParams.resolve_on()``): every
  lookup is one ``resolve`` RPC at any depth, answered out of the
  server-side dentry cache.

Phases map to the three DL access patterns:

- ``flat_stat``  — one pass over the flat shard-directory samples
  (depth 3: the walk's extra cost is small and its tiny dcache stays
  hot — the two arms should roughly tie);
- ``epoch_read`` — ``epochs`` randomized full passes over the sample
  set (deterministic shuffles from the cluster's named streams, so both
  arms replay identical access orders);
- ``deep_stat``  — repeated stats of checkpoint files at path depth 8:
  more unique directories than the walk arm's dcache bound, so the walk
  re-reads ~``depth - 1`` ancestors per stat while the thin client pays
  exactly one RPC. This is the acceptance phase: thin-client throughput
  must be **>= 3x** the walk (:func:`floors`).

This module is the workload; the off/on harness around it (run both
sides, speedup table, JSON, CI gate) is :func:`repro.bench.suite.ablation`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, List, Tuple

from ..core.fs import build_dufs_deployment
from ..core.paths import ancestors
from ..models.params import ResolveParams, SimParams
from ..workloads.dltrain import DLTrainSpec, epoch_order
from ..workloads.driver import run_phase

#: Path depth of the ``deep_stat`` checkpoint files, at every scale: the
#: acceptance criterion is pinned to depth 8.
DEPTH = 8

_SCALES = {
    # scale -> (n_zk, n_client_nodes, workload spec). n_chains keeps the
    # deep tree bigger than the walk arm's dcache.
    "quick": (3, 4, DLTrainSpec(n_shard_dirs=4, samples_per_dir=12,
                                n_chains=16, depth=DEPTH, epochs=2)),
    "medium": (8, 8, DLTrainSpec(n_shard_dirs=8, samples_per_dir=24,
                                 n_chains=24, depth=DEPTH, epochs=3)),
    "full": (8, 8, DLTrainSpec(n_shard_dirs=16, samples_per_dir=48,
                               n_chains=32, depth=DEPTH, epochs=3)),
}

PHASES = ("flat_stat", "epoch_read", "deep_stat")

#: Client dcache bound for the walk (off) arm: models a cold kernel
#: dcache. Every scale's deep tree has more directories than this, so
#: deep stats actually churn instead of going resident.
WALK_DCACHE = 64

#: Acceptance floor (ISSUE): thin-client deep_stat throughput vs walk.
DEEP_STAT_FLOOR = 3.0


class ColdDcacheWalk:
    """The walk arm: a default (fat) DUFS client behind an emulated
    kernel VFS that walks the path component by component, paying one
    znode read for every proper ancestor missing from a bounded LRU
    dcache before handing the lookup to the client — the per-lookup cost
    that grows with depth and that server-side resolution removes."""

    def __init__(self, client, capacity: int = WALK_DCACHE):
        self.client = client
        self.capacity = capacity
        self.dcache: "OrderedDict[str, None]" = OrderedDict()

    def stat(self, path: str) -> Generator:
        for ancestor in ancestors(path):
            if ancestor in self.dcache:
                self.dcache.move_to_end(ancestor)
                continue
            self.client.stats["zk_reads"] += 1
            yield from self.client.zk.get(ancestor)
            self.dcache[ancestor] = None
            if len(self.dcache) > self.capacity:
                self.dcache.popitem(last=False)
        return (yield from self.client.stat(path))


def run_side(thin: bool, scale: str) -> Dict:
    """One full run (scaffold + three measured phases) of one arm: thin
    clients, or default clients each behind a :class:`ColdDcacheWalk`.

    Like the cache ablation, measured phases drive the DUFS client
    library directly: the FUSE crossing is a constant paid identically
    by both arms and would only dilute the resolution signal.
    """
    n_zk, n_clients, spec = _SCALES[scale]
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=2,
                                n_client_nodes=n_clients, backend="local",
                                params=SimParams(),
                                resolve=ResolveParams(enabled=thin))
    sim = dep.cluster.sim
    samples = spec.sample_files()
    chains = spec.chain_files()
    nodes = [dep.node_for(i) for i in range(n_clients)]
    readers = [c if thin else ColdDcacheWalk(c) for c in dep.clients]

    # ---- scaffold (not measured) ------------------------------------
    def scaffold() -> Generator:
        c = dep.clients[0]
        for d in spec.all_dirs():
            yield from c.mkdir(d)
        for path in spec.all_files():
            yield from c.create(path)

    sim.run(until=dep.client_nodes[0].spawn(scaffold()))
    sim.run(until=sim.now + 0.05)  # replica settle
    base_reads = sum(c.stats["zk_reads"] for c in dep.clients)

    results = {}

    # ---- flat_stat: one pass over the flat shard dirs ----------------
    def flat_worker(p: int) -> Generator:
        c = readers[p % len(readers)]
        for path in samples:
            yield from c.stat(path)

    results["flat_stat"] = run_phase(
        sim, "flat_stat", nodes,
        [flat_worker(p) for p in range(n_clients)], len(samples))

    # ---- epoch_read: randomized re-reads, epochs passes --------------
    # Per-worker named streams: both arms build their cluster at the
    # default seed, so off and on replay identical shuffled orders.
    def epoch_worker(p: int) -> Generator:
        c = readers[p % len(readers)]
        rng = dep.cluster.streams.stream(f"dltrain.epoch.{p}")
        for _ in range(spec.epochs):
            for path in epoch_order(spec, rng):
                yield from c.stat(path)

    sim.run(until=sim.now + 0.05)
    results["epoch_read"] = run_phase(
        sim, "epoch_read", nodes,
        [epoch_worker(p) for p in range(n_clients)],
        spec.epochs * len(samples))

    # ---- deep_stat: checkpoint files at path depth 8 -----------------
    def deep_worker(p: int) -> Generator:
        c = readers[p % len(readers)]
        for _ in range(spec.epochs):
            for path in chains:
                yield from c.stat(path)

    sim.run(until=sim.now + 0.05)
    results["deep_stat"] = run_phase(
        sim, "deep_stat", nodes,
        [deep_worker(p) for p in range(n_clients)],
        spec.epochs * len(chains))

    lookups = sum(r.ops for r in results.values())
    reads = sum(c.stats["zk_reads"] for c in dep.clients) - base_reads
    server = {"resolves": 0, "dentry_hits": 0, "dentry_misses": 0}
    for ens in dep.ensembles:
        for srv in ens.servers:
            for k in server:
                server[k] += srv.stats.get(k, 0)
    return {
        "phases": {name: {"ops": r.ops, "duration": r.duration,
                          "ops_per_s": r.throughput}
                   for name, r in results.items()},
        "lookups": lookups,
        "zk_reads": reads,
        "reads_per_lookup": reads / lookups if lookups else 0.0,
        "server": server,
    }


def footer(doc: Dict) -> str:
    s = doc["on"]["server"]
    return (
        f"  thin: {doc['on']['reads_per_lookup']:.2f} RPCs/lookup "
        f"({doc['on']['zk_reads']} reads / {doc['on']['lookups']} lookups) "
        f"vs walk {doc['off']['reads_per_lookup']:.2f}; server dentry "
        f"hits {s['dentry_hits']}/{s['dentry_hits'] + s['dentry_misses']} "
        f"over {s['resolves']} resolves")


def floors(doc: Dict) -> List[Tuple[str, float, float]]:
    return [(f"deep_stat resolve speedup at depth {doc['depth']}",
             doc["speedup"]["deep_stat"], DEEP_STAT_FLOOR)]
