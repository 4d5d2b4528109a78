"""The metric catalogue: every name the benchmark emits, with its unit,
direction, regression bound, clock and the pass that measures it.

``BENCHMARK.json`` carries the same names (a self-test keeps the two in
step). Simulated-clock units are spelled ``sim_*`` so nobody reads a
modelled microsecond as host time.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .reduce import HOST_GROUPS, SIM_COLUMNS

PHASES = ("dir_create", "dir_stat", "dir_remove",
          "file_create", "file_stat", "file_remove")
#: Ops whose latency is decomposed by layer.
LAYER_OPS = ("dir_create", "file_create", "file_stat")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    bound: Optional[float]      # share of the parent's median; None = per-layer
    clock: str                  # "host" | "sim"
    source: str                 # pass that measures it
    exact: bool = False         # repeats to the digit for a fixed seed


def layer_metric_name(column: str, op: str) -> str:
    """``fuse`` -> ``fuse.self_us.<op>``; the three columns that are not a
    layer's self time keep their own suffix (``sim.wire_us``,
    ``zk.server.queue_us``, ``zk.server.service_us``)."""
    if column == "sim.wire":
        return f"sim.wire_us.{op}"
    if column.startswith("zk.server."):
        return f"{column}_us.{op}"
    return f"{column}.self_us.{op}"


#: Regression bounds of the simulated metrics. A bound has to hold the
#: metric's spread *across seeds* (the driver runs ten seeds and refuses a
#: benchmark whose inter-quartile spread exceeds its own bound), so each is
#: about three times the worst workload's measured spread (README, "Noise").
#: For one fixed seed these metrics repeat to the digit, and ``compare``
#: reports any change at all.
_SIM_BOUNDS = {
    "dir_create_ops_s": 0.25, "dir_stat_ops_s": 0.10,
    "dir_remove_ops_s": 0.20, "file_create_ops_s": 0.10,
    "file_stat_ops_s": 0.20, "file_remove_ops_s": 0.20,
    "file_create_p50_us": 0.20, "file_create_p99_us": 0.25,
    "file_stat_p50_us": 0.05, "file_stat_p99_us": 0.25,
}


def _e2e() -> List[Metric]:
    out = [
        Metric("setup_s", "s", "lower", 0.25, "host", "setup+timed"),
        Metric("wall_s", "s", "lower", 0.25, "host", "timed"),
        Metric("host_mcalls", "Mcalls", "lower", 0.07, "host", "counted",
               exact=True),
        Metric("peak_rss_mb", "MiB", "lower", 0.10, "host", "timed"),
    ]
    out += [Metric(f"{p}_ops_s", "sim_ops/s", "higher",
                   _SIM_BOUNDS[f"{p}_ops_s"], "sim", "timed", exact=True)
            for p in PHASES]
    out += [Metric(f"{p}_{q}_us", "sim_us", "lower",
                   _SIM_BOUNDS[f"{p}_{q}_us"], "sim", "timed", exact=True)
            for p in ("file_create", "file_stat") for q in ("p50", "p99")]
    return out


def _per_layer() -> List[Metric]:
    def sim(name, unit, better="lower"):
        return Metric(name, unit, better, None, "sim", "traced", exact=True)

    out = [sim(layer_metric_name(col, op), "sim_us")
           for col in SIM_COLUMNS for op in LAYER_OPS]
    out += [sim(f"{kind}.rpcs_per_op.{op}", "count")
            for kind in ("zk", "pfs") for op in LAYER_OPS]
    out += [
        sim("zk.leader.busy_pct", "%"),
        sim("zk.leader.queue_p95_us", "sim_us"),
        sim("pfs.mds.busy_pct", "%"),
        sim("zk.txn.fill_mean", "count", "higher"),
        sim("zk.propose.fill_mean", "count", "higher"),
        sim("mds.cross_shard_ops", "count"),
        sim("mds.anchors_created", "count"),
        sim("mds.resolve_hops", "count"),
        sim("core.mdcache.hit_ratio", "ratio", "higher"),
        sim("core.mdcache.evictions", "count"),
        sim("core.mdcache.watch_invalidations", "count"),
        sim("core.mdcache.coalesced", "count", "higher"),
        sim("core.wblog.fill_mean", "count", "higher"),
        sim("core.wblog.stalls", "count"),
        sim("core.wblog.acked", "count", "higher"),
        sim("core.wblog.committed", "count", "higher"),
        sim("zk.election.count", "count"),
        sim("zk.client.retries", "count"),
        sim("zk.client.sessions_reestablished", "count"),
        sim("zk.outage_s", "sim_s"),
    ]
    for group in HOST_GROUPS:
        out.append(Metric(f"host.calls_m.{group}", "Mcalls", "lower", None,
                          "host", "counted", exact=True))
        out.append(Metric(f"host.self_pct.{group}", "%", "lower", None,
                          "host", "counted"))
    out += [
        Metric("sim.events", "count", "lower", None, "host", "timed",
               exact=True),
        Metric("sim.events_per_op", "count", "lower", None, "host", "timed",
               exact=True),
        Metric("sim.sim_seconds", "sim_s", "lower", None, "sim", "timed",
               exact=True),
        Metric("host.events_per_wall_s", "1/s", "higher", None, "host",
               "timed"),
        Metric("trace.overhead_ratio", "ratio", "lower", None, "host",
               "traced"),
    ]
    return out


END_TO_END: List[Metric] = _e2e()
PER_LAYER: List[Metric] = _per_layer()
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
