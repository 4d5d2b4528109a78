"""The six workloads: deployment shape, load, and the seeded input generator.

Every workload is the mdtest sequence (six barrier-separated phases over a
shared fan-out-10 x depth-2 tree) on DUFS over two Lustre back-ends and
eight client nodes, closed loop: each simulated client process has one op
outstanding. What differs is which feature flags are on and how hard the
deployment is driven — each row below says which layers that makes do the
work (the *why* is what ``BENCHMARK.json`` and the README quote).

The per-process path lists are generated here from ``--seed`` (item
placement, stat order, Zipf draws). The program under test only ever sees
the lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.models.params import (AsyncParams, CacheParams,
                                 FaultToleranceParams, ResolveParams,
                                 SimParams, ZKParams)
from repro.workloads.treegen import TreeSpec, tree_dirs

from .metrics import PHASES

TREE = TreeSpec(fanout=10, depth=2)
N_CLIENT_NODES = 8
BARRIER_SLACK = 0.05
#: Processes leave the barrier that opens a phase over this window (one
#: round trip of the modelled 1 GigE), each at its own seeded offset, as MPI
#: ranks do. Without it every process issues its first op at the same
#: simulated instant and several metrics do not depend on the seed at all.
START_SKEW = 60e-6

#: ``std`` is what the driver and the committed baseline run (>= 1,000 ops
#: per measured phase, so a p99 has ten samples beyond it); ``tiny`` is the
#: self-test smoke.
SCALES = ("std", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    std: Tuple[int, int]              # (procs, items per proc)
    tiny: Tuple[int, int]
    deploy: Callable[[int], dict]     # population -> build_dufs_deployment kwargs
    stat_draws: int = 0               # >0: Zipf stats per proc, in units of items
    flush: bool = False               # workers end each phase with client.flush()
    #: phase -> [(offset s, "crash"|"recover", "leader"|"follower")], replayed
    #: by one ChaosEngine started at that phase's start.
    faults: Tuple[Tuple[str, Tuple[Tuple[float, str, str], ...]], ...] = ()

    def load(self, scale: str) -> Tuple[int, int]:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
        return self.std if scale == "std" else self.tiny


#: Client retry policy of the fail-over workload. The default back-off cap
#: (1 s) leaves every client asleep for a random 0-1 s after the election
#: ends, which made file_create's p99 spread 40 % across seeds; a 0.1 s cap
#: (with the retry count raised to outlast the ~0.85 s election) ties the
#: measured outage to the election itself.
FAILOVER_RETRY = FaultToleranceParams(backoff_cap=0.1)


def _failover_params() -> SimParams:
    # The chaos runner's shape: failure detection on, short timers.
    params = SimParams()
    params.zk = ZKParams(failure_detection=True, session_tracking=True,
                         ping_interval=0.1, ping_timeout=0.3,
                         election_tick=0.05)
    return params


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "paper-sat",
        "Paper Fig. 10 dufs-lustre at saturation (256 procs): ZK leader and "
        "Lustre MDS queues are full; cache, wblog, sharding, resolve and "
        "retry are bypassed. The should-not-move baseline row.",
        std=(256, 8), tiny=(32, 2),
        deploy=lambda population: {}),
    Workload(
        "paper-lat",
        "Same deployment unloaded (8 procs, one per node): latency is the "
        "intrinsic path fuse-client-wire-quorum-log with empty queues. "
        "Where one create's time goes; a queueing fix should show nothing.",
        std=(8, 125), tiny=(8, 4),
        deploy=lambda population: {}),
    Workload(
        "sharded-lat",
        "n_shards=4 (4x2 servers, parent-hash) at paper-lat's load: "
        "mds.sharded anchors/intents and hashing.md5 do the work; holds the "
        "sharded dir_create and stat slowdown. Pair with paper-lat.",
        std=(8, 125), tiny=(8, 4),
        deploy=lambda population: {"n_shards": 4}),
    Workload(
        "async-lat",
        "Write-behind plus mdcache overlay, flush inside each timed phase: "
        "core.wblog and svc.batch do the work. Latency is ack latency, "
        "ops/s is committed ops/s, so a faster ack that hurts drain shows.",
        std=(8, 125), tiny=(8, 4),
        deploy=lambda population: {"awrite": AsyncParams.async_on(),
                                   "cache": CacheParams.caching_on()},
        flush=True),
    Workload(
        "hotread-cached",
        "mdcache (capacity = half the items) plus server-side resolve; "
        "stats are 3x Zipf(1) draws over all procs' items: the only "
        "workload where cache hit/evict/coalesce carry reads and cost "
        "writers.",
        std=(64, 16), tiny=(16, 4),
        deploy=lambda population: {
            "cache": CacheParams.caching_on(capacity=max(8, population // 16)),
            "resolve": ResolveParams.resolve_on(),
            "n_oss_per_lustre": 2},
        stat_draws=3),
    Workload(
        "failover",
        "5 dedicated ZK servers with failure detection; the leader crashes "
        "50 ms into file_create and a follower 10 ms into dir_stat: the "
        "only workload running election, client retry and heartbeat "
        "timers.",
        std=(64, 16), tiny=(16, 6),
        deploy=lambda population: {"n_zk": 5, "co_locate_zk": False,
                                   "params": _failover_params(),
                                   "zk_request_timeout": 0.4,
                                   "zk_max_retries": 30,
                                   "fault": FAILOVER_RETRY},
        # The follower is back while dir_stat still runs (its clients sit out
        # the 0.4 s request timeout, so the phase outlasts it at any scale):
        # a follower that rejoins while writes commit can apply its log
        # twice and die on "inconsistent replica" (README, Recorded smells).
        faults=(("dir_stat", ((0.001, "crash", "follower"),
                              (0.251, "recover", "follower"))),
                ("file_create", ((0.05, "crash", "leader"),
                                 (1.05, "recover", "leader"))))),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass
class Inputs:
    """What one run feeds the program: generated from the seed alone."""

    scaffold: List[str]                      # the shared tree, BFS order
    paths: Dict[str, List[List[str]]]        # phase -> per-process op list
    skew: Dict[str, List[float]]             # phase -> per-process start offset

    def ops(self, phase: str) -> int:
        return sum(len(p) for p in self.paths[phase])


def _zipf_counts(population: int, draws: int) -> List[int]:
    """How often each popularity rank is drawn: ``draws`` split over the
    ranks in proportion to 1/rank (largest remainder), so every seed sees
    the same popularity profile and only *who stats what, when* varies."""
    norm = sum(1.0 / rank for rank in range(1, population + 1))
    shares = [draws / (rank * norm) for rank in range(1, population + 1)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(population),
                          key=lambda r: (counts[r] - shares[r], r))
    for rank in by_remainder[:draws - sum(counts)]:
        counts[rank] += 1
    return counts


def generate(w: Workload, seed: int, scale: str = "std") -> Inputs:
    """Pure function of ``(workload, seed, scale)``: same seed, same lists.

    The seed decides which directory each item lands in, the order each
    process stats in, (Zipf workloads) which item holds which popularity
    rank and which process draws it, and when each process leaves the
    barrier that opens a phase. Placement deals the items
    round-robin over a seeded permutation of the tree's directories, the
    way mdtest spreads a shared tree evenly: i.i.d. placement made random
    hot directories that moved saturated ops/s by 4-6 % between seeds.
    """
    procs, items = w.load(scale)
    rng = random.Random(f"perfbench/{w.name}/{seed}")
    scaffold = tree_dirs(TREE)

    def place(tag: str) -> List[List[str]]:
        dirs = rng.sample(scaffold[1:], len(scaffold) - 1)
        return [[f"{dirs[(p * items + i) % len(dirs)]}/{tag}.{p}.{i}"
                 for i in range(items)] for p in range(procs)]

    def stat_order(created: List[List[str]]) -> List[List[str]]:
        if not w.stat_draws:
            return [rng.sample(own, len(own)) for own in created]
        by_rank = [path for own in created for path in own]
        rng.shuffle(by_rank)
        per_proc = w.stat_draws * items
        draws = [path for path, n in zip(by_rank, _zipf_counts(
            len(by_rank), procs * per_proc)) for _ in range(n)]
        rng.shuffle(draws)
        return [draws[p * per_proc:(p + 1) * per_proc] for p in range(procs)]

    made_dirs, made_files = place("md"), place("mf")
    paths = {"dir_create": made_dirs, "dir_stat": stat_order(made_dirs),
             "dir_remove": made_dirs, "file_create": made_files,
             "file_stat": stat_order(made_files), "file_remove": made_files}
    skew = {phase: [rng.uniform(0.0, START_SKEW) for _ in range(procs)]
            for phase in PHASES}
    return Inputs(scaffold=scaffold, paths=paths, skew=skew)


def deployment_kwargs(w: Workload, scale: str = "std") -> dict:
    """Keyword arguments for ``build_dufs_deployment`` (the shared shape
    plus the workload's own flags). The program's own random streams
    (``seed``: client retry jitter) are part of the deployment, not of the
    inputs, and do not follow ``--seed``."""
    procs, items = w.load(scale)
    kwargs = dict(n_zk=8, n_backends=2, n_client_nodes=N_CLIENT_NODES,
                  backend="lustre", seed=1)
    kwargs.update(w.deploy(procs * items))
    return kwargs
