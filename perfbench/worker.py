"""One pass over one workload, in a fresh process.

``python -m perfbench.worker '<json spec>'`` builds the deployment, creates
the scaffold tree (unmeasured), runs the six measured phases, verifies the
outputs and prints one JSON document as the last line of stdout.

Modes (the spec's ``mode``):

``setup``    stops at the first measured phase: one more set-up time sample.
``timed``    nothing attached: set-up time, wall time per phase, peak RSS.
``counted``  cProfile around the measured phases: exact call counts and
             the host cost per module group.
``traced``   TraceBus plus perfbench's span wrappers: the simulated
             per-layer table and the exact counters.

Every mode also reports the simulated metrics; recording adds no simulator
events, so they must agree across modes — the parent checks that.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from stat import S_ISDIR, S_ISREG
from time import perf_counter
from typing import Dict, Generator, List, Optional, Tuple

import repro
from repro.chaos import ChaosEngine, ChaosSchedule, audit_dufs
from repro.core.fs import build_dufs_deployment
from repro.core.mdcache import aggregate_counters
from repro.errors import FSError
from repro.sim.stats import percentile
from repro.svc import TraceBus
from repro.workloads.driver import run_phase

from . import reduce
from .clock import REFERENCE_S, Stopwatch, speed_sample
from .metrics import LAYER_OPS, layer_metric_name
from .spans import Recorder
from .workloads import (BARRIER_SLACK, BY_NAME, PHASES, Inputs, Workload,
                        deployment_kwargs, generate)

MOUNT_OP = {"dir_create": "mkdir", "dir_stat": "stat", "dir_remove": "rmdir",
            "file_create": "create", "file_stat": "stat",
            "file_remove": "unlink"}
#: A p99 is reported from at least this many samples (ten beyond it).
P99_MIN_SAMPLES = 1000
#: The timed pass brackets every this-many op completions with a run of
#: the reference loop.
OPS_PER_SLICE = 16


class PhaseLog:
    """What the op generator observed in one phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.done_at: List[float] = []
        self.failed: List[str] = []
        self.wrong = 0            # stat answered with the wrong file type
        self.duration = 0.0


def _worker(dep, w: Workload, phase: str, proc: int, paths: List[str],
            skew: float, log: PhaseLog,
            watch: Optional[Stopwatch]) -> Generator:
    sim = dep.cluster.sim
    yield sim.timeout(skew)
    op = getattr(dep.mount_for(proc), MOUNT_OP[phase])
    is_type = {"dir_stat": S_ISDIR, "file_stat": S_ISREG}.get(phase)
    for path in paths:
        t0 = sim.now
        try:
            result = yield from op(path)
        except FSError:
            log.failed.append(path)
            continue
        log.latencies.append(sim.now - t0)
        log.done_at.append(sim.now)
        if watch is not None and len(log.done_at) % OPS_PER_SLICE == 0:
            watch.mark()
        if is_type is not None and not is_type(result.st_mode):
            log.wrong += 1
    if w.flush:
        # Drain inside the timed phase: ops/s are committed ops/s.
        errors = yield from dep.clients[proc % len(dep.clients)].flush()
        log.failed.extend(path for path, _ in errors)


def _scaffold(dep, w: Workload, dirs: List[str]) -> None:
    """Create the shared tree level by level (parents first), spreading
    each level over the client nodes. Not measured."""
    sim = dep.cluster.sim

    def make(node: int, paths: List[str]) -> Generator:
        for path in paths:
            yield from dep.mounts[node].mkdir(path)
        if w.flush:
            yield from dep.clients[node].flush()

    by_depth: Dict[int, List[str]] = {}
    for path in dirs:
        by_depth.setdefault(path.count("/"), []).append(path)
    n = len(dep.mounts)
    for depth in sorted(by_depth):
        level = by_depth[depth]
        run_phase(sim, f"scaffold-{depth}", dep.client_nodes,
                  [make(i, level[i::n]) for i in range(min(n, len(level)))],
                  0)


def _chaos_engine(dep, events) -> ChaosEngine:
    """One engine per faulted phase. ``leader``/``follower`` are resolved
    when the crash fires and remembered, so the recover hits the same
    node whoever leads by then. The follower is the lowest-numbered one:
    crashing the *highest* server id before the leader makes the later
    election livelock (5,827 elections and 40 failed ops at seed 1) — a
    defect of the program recorded in the README, not a load to measure."""
    chosen: Dict[str, object] = {}

    def resolve(symbol: str):
        if symbol not in chosen:
            leader = dep.ensemble.leader
            if symbol == "leader":
                if leader is None:
                    raise RuntimeError("no ZooKeeper leader to crash")
                chosen[symbol] = leader.node
            else:
                chosen[symbol] = next(s for s in dep.ensemble.servers
                                      if s is not leader).node
        return chosen[symbol]

    schedule = ChaosSchedule()
    for at, kind, target in events:
        getattr(schedule, kind)(at, target)
    return ChaosEngine(dep.cluster, schedule, resolve=resolve)


def _leftovers(dep, scaffold: List[str]) -> List[str]:
    """Namespace as a user sees it after ``file_remove``: list every
    scaffold directory through a mount and return what is there beyond
    (or missing from) the scaffold itself."""
    seen: set = set()

    def walk() -> Generator:
        for directory in scaffold:
            entries = yield from dep.mounts[0].readdir(directory)
            seen.update(f"{directory}/{entry.name}" for entry in entries)

    proc = dep.client_nodes[0].spawn(walk(), "perfbench.verify")
    dep.cluster.sim.run(until=proc)
    return sorted(seen.symmetric_difference(scaffold[1:]))


def _counters(dep) -> Dict[str, float]:
    """Cumulative program counters (read before and after the measured
    phases; the difference is reported)."""
    out: Dict[str, float] = {}
    cache = aggregate_counters([c.mdcache for c in dep.clients])
    for key in ("hits", "misses", "coalesced", "evictions",
                "watch_invalidations"):
        out[f"cache.{key}"] = cache[key]
    for key in ("cross_shard_ops", "anchors_created", "resolve_hops"):
        out[f"mds.{key}"] = sum(c.zk.stats[key] for c in dep.clients
                                if c.zk.n_shards > 1)
    for key in ("stalls", "acked", "committed"):
        out[f"wblog.{key}"] = sum(c.wblog.stats[key] for c in dep.clients
                                  if c.wblog is not None)
    for key in ("flushes", "items"):
        out[f"wblog.batch.{key}"] = sum(
            c.wblog.batch_stats[key] for c in dep.clients
            if c.wblog is not None)
    out["zk.elections"] = sum(s.stats["elections"] for ens in dep.ensembles
                              for s in ens.servers)
    return out


def _sim_metrics(inputs: Inputs, logs: Dict[str, PhaseLog],
                 scale: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for phase in PHASES:
        out[f"{phase}_ops_s"] = inputs.ops(phase) / logs[phase].duration
    for phase in ("file_create", "file_stat"):
        lat = sorted(logs[phase].latencies)
        if scale == "std" and len(lat) < P99_MIN_SAMPLES:
            raise RuntimeError(f"{phase}: {len(lat)} latency samples, a p99 "
                               f"needs {P99_MIN_SAMPLES}")
        out[f"{phase}_p50_us"] = percentile(lat, 0.50) * 1e6
        out[f"{phase}_p99_us"] = percentile(lat, 0.99) * 1e6
        out[f"{phase}_samples"] = len(lat)
    return out


def _layer_metrics(dep, w: Workload, rec: Recorder, logs: Dict[str, PhaseLog],
                   before: Dict[str, float], after: Dict[str, float],
                   total_ops: int, checks: Dict[str, bool]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    worst_gap = 0.0
    for op in LAYER_OPS:
        roots = [s for s in rec.spans
                 if s.parent is None and s.layer == "fuse" and s.phase == op
                 and s.end != float("inf")]
        seconds, rpcs = reduce.layer_self_times(rec.spans, roots)
        n = max(1, len(roots))
        for column in reduce.SIM_COLUMNS:
            out[layer_metric_name(column, op)] = seconds[column] / n * 1e6
        out[f"zk.rpcs_per_op.{op}"] = rpcs["zk.client"] / n
        out[f"pfs.rpcs_per_op.{op}"] = rpcs["pfs"] / n
        # Failed ops have a root span but no latency sample, so the columns
        # are held against the root spans' own total.
        latency = sum(s.end - s.start for s in roots)
        attributed = sum(seconds[c] for c in reduce.SIM_COLUMNS)
        if latency > 0:
            worst_gap = max(worst_gap, abs(attributed - latency) / latency)
    checks["layer columns sum to latency within 2%"] = worst_gap <= 0.02

    window = sum(logs[p].duration for p in PHASES)
    zk_nodes = {s.node for ens in dep.ensembles for s in ens.servers}
    mds_nodes = {b.mds.node for b in dep.backends}

    def busy_pct(node) -> float:
        return 100.0 * rec.cpu_busy[node.name] / (node.cores * window)

    leader_node = max(sorted(zk_nodes, key=lambda n: n.name), key=busy_pct)
    out["zk.leader.busy_pct"] = busy_pct(leader_node)
    waits = sorted(rec.cpu_waits[leader_node.name]) or [0.0]
    out["zk.leader.queue_p95_us"] = percentile(waits, 0.95) * 1e6
    out["pfs.mds.busy_pct"] = max(busy_pct(n) for n in mds_nodes)

    fills = {"logger": [0, 0], "proposer": [0, 0]}
    for key, row in dep.bus.batch_occupancy().items():
        kind = key.rsplit(".", 1)[-1]
        if key.startswith("zk/") and kind in fills:
            fills[kind][0] += row["items"]
            fills[kind][1] += row["flushes"]
    out["zk.txn.fill_mean"] = fills["logger"][0] / max(1, fills["logger"][1])
    # No proposer pipeline (propose_batch_max == 1): one txn per PROPOSE.
    out["zk.propose.fill_mean"] = (fills["proposer"][0] / fills["proposer"][1]
                                   if fills["proposer"][1] else 1.0)

    delta = {k: after[k] - before[k] for k in after}
    for key in ("cross_shard_ops", "anchors_created", "resolve_hops"):
        out[f"mds.{key}"] = delta[f"mds.{key}"] / total_ops
    lookups = delta["cache.hits"] + delta["cache.misses"] \
        + delta["cache.coalesced"]
    cache_on = any(c.mdcache.params.enabled for c in dep.clients)
    out["core.mdcache.hit_ratio"] = (delta["cache.hits"] / lookups
                                     if cache_on and lookups else 0.0)
    for key in ("evictions", "watch_invalidations", "coalesced"):
        out[f"core.mdcache.{key}"] = delta[f"cache.{key}"]
    out["core.wblog.fill_mean"] = (delta["wblog.batch.items"]
                                   / max(1, delta["wblog.batch.flushes"]))
    for key in ("stalls", "acked", "committed"):
        out[f"core.wblog.{key}"] = delta[f"wblog.{key}"]
    out["zk.election.count"] = delta["zk.elections"]
    client_endpoints = {c.zk.client_for_shard(k).agent.endpoint
                        for c in dep.clients for k in range(c.zk.n_shards)}
    out["zk.client.retries"] = sum(
        ev.retries for ev in dep.bus.events
        if ev.deployment == "zk" and ev.endpoint in client_endpoints
        and ev.arrive >= rec.spans[0].start) if rec.spans else 0
    out["zk.client.sessions_reestablished"] = rec.watch_loss["session"]
    faulted = [phase for phase, _ in w.faults]
    out["zk.outage_s"] = max(
        (b - a for phase in faulted
         for a, b in zip(logs[phase].done_at, logs[phase].done_at[1:])),
        default=0.0)
    return out


def _verify(dep, w: Workload, inputs: Inputs, logs: Dict[str, PhaseLog],
            attempted: int) -> Tuple[int, Dict[str, bool]]:
    """The output checks (unmeasured). No idle settling first: ~0.4
    simulated seconds after the load stops the fail-over ensemble goes into
    an election storm (README, "Recorded smells"), which costs host seconds
    and proves nothing."""
    failed = [path for log in logs.values() for path in log.failed]
    completed = sum(len(log.latencies) for log in logs.values())
    checks = {
        "every generated op completed or was counted as failed":
            completed + len(failed) == attempted,
        "stat returned the right file type":
            not any(log.wrong for log in logs.values()),
        # An op that failed may have left its entry behind; nothing else
        # may differ from the scaffold.
        "namespace after file_remove equals the scaffold tree":
            set(_leftovers(dep, inputs.scaffold)) <= set(failed),
        "audit_dufs reports no violation": audit_dufs(dep).ok,
    }
    if not w.faults:
        checks["no op failed"] = not failed
    return len(failed), checks


def run(spec: dict) -> dict:
    w = BY_NAME[spec["workload"]]
    seed, scale, mode = spec["seed"], spec["scale"], spec["mode"]
    inputs = generate(w, seed, scale)
    bus = TraceBus(keep_events=True) if mode == "traced" else None
    dep = build_dufs_deployment(bus=bus, **deployment_kwargs(w, scale))
    sim = dep.cluster.sim
    rec = Recorder(sim) if mode == "traced" else None
    if rec is not None:
        rec.instrument(dep)
    profiler = cProfile.Profile(subcalls=False) if mode == "counted" else None
    watch = Stopwatch() if mode == "timed" else None
    faults = dict(w.faults)
    engines: List[ChaosEngine] = []
    logs = {phase: PhaseLog() for phase in PHASES}

    with (rec.installed() if rec is not None else nullcontext()):
        _scaffold(dep, w, inputs.scaffold)
        before = _counters(dep)
        events_before, sim_before = sim._eid, sim.now
        # Set-up is one slice of work like any other: rescaled by the speed
        # the parent saw just before the spawn and the one seen here.
        setup_raw_s = time.monotonic() - spec["spawned_at"]
        setup_s = setup_raw_s * REFERENCE_S / (
            (spec["speed_before"] + speed_sample(runs=5)) / 2.0)
        if mode == "setup":
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

        # -- the six measured phases --------------------------------------
        started = perf_counter()
        if profiler is not None:
            profiler.enable()
        for phase in PHASES:
            log = logs[phase]
            if watch is not None:
                watch.start()
            sim.run(until=sim.now + BARRIER_SLACK)
            if phase in faults:
                engines.append(_chaos_engine(dep, faults[phase]))
                engines[-1].start()
            if rec is not None:
                rec.phase = phase
            workers = [_worker(dep, w, phase, p, paths,
                               inputs.skew[phase][p], log, watch)
                       for p, paths in enumerate(inputs.paths[phase])]
            log.duration = run_phase(sim, phase, dep.client_nodes, workers,
                                     len(inputs.paths[phase][0])).duration
            if rec is not None:
                rec.phase = None
            if watch is not None:
                watch.stop()
        if profiler is not None:
            profiler.disable()
        wall_raw_s = perf_counter() - started if watch is None \
            else watch.raw_s
        events = sim._eid - events_before
        sim_seconds = sim.now - sim_before
        after = _counters(dep)

        for engine in engines:
            sim.run(until=engine.proc)       # every crashed node is back
        attempted = sum(inputs.ops(p) for p in PHASES)
        failed, checks = _verify(dep, w, inputs, logs, attempted)
        out = {
            "workload": w.name, "seed": seed, "scale": scale, "mode": mode,
            "attempted": attempted, "failed": failed,
            "setup_s": setup_s, "setup_raw_s": setup_raw_s,
            "wall_raw_s": wall_raw_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events": events, "sim_seconds": sim_seconds,
            "sim": _sim_metrics(inputs, logs, scale),
        }
        if watch is not None:
            out["wall_s"] = watch.reference_s
        if rec is not None:
            out["layers"] = _layer_metrics(dep, w, rec, logs, before, after,
                                           attempted, checks)
            if spec.get("spans_out"):
                rec.dump(spec["spans_out"], w.name)
        out["checks"] = checks
    if profiler is not None:
        out.update(_host_profile(profiler))
    return out


def _host_profile(profiler: cProfile.Profile) -> dict:
    # Builtins carry a description string instead of a code object.
    rows = [("~" if isinstance(entry.code, str) else entry.code.co_filename,
             entry.callcount, entry.inlinetime)
            for entry in profiler.getstats()]
    groups = reduce.host_groups(rows, os.path.dirname(repro.__file__),
                                os.path.dirname(os.path.abspath(__file__)))
    return {"host_calls": sum(g["calls"] for g in groups.values()),
            "host_groups": groups}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    result = run(json.loads(argv[0]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
