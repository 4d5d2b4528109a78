"""Reducers: spans -> per-layer simulated self time; cProfile rows -> host
cost per module group.

Self time of a span is its duration minus the *union* of the intervals its
children cover (children are clipped to the parent first, so a server that
keeps working after its caller timed out is not charged to the op). With
properly nested, non-overlapping children the self times of a tree sum to
the root's duration exactly; the runner checks that sum against the
measured mean latency.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: Layer columns of the simulated per-op table. ``zk.server`` self time is
#: split into core-queue wait and everything else (CPU service, ZAB
#: propose -> quorum -> log wait -> apply).
SIM_COLUMNS = ("fuse", "core.client", "core.mdcache", "core.wblog", "mds",
               "zk.client", "sim.wire", "zk.server.queue",
               "zk.server.service", "pfs")

#: Host-clock module groups, in report order.
HOST_GROUPS = ("sim.core", "sim.resources", "sim.network", "sim.rpc",
               "sim.node", "svc", "zk.server", "zk.data", "zk.client", "mds",
               "core.client", "core.mdcache", "core.wblog", "fuse", "pfs",
               "hashing", "resilience", "workloads", "python")

#: File (relative to ``src/repro``) -> group, for the files that do not
#: follow their package's default.
_FILE_GROUP = {
    "sim/resources.py": "sim.resources",
    "sim/network.py": "sim.network",
    "sim/rpc.py": "sim.rpc",
    "sim/node.py": "sim.node",
    "zk/data.py": "zk.data",
    "zk/client.py": "zk.client",
    "core/mdcache.py": "core.mdcache",
    "core/wblog.py": "core.wblog",
}
#: Package (first path component under ``src/repro``) -> default group.
#: Everything that drives or configures a run rather than modelling a layer
#: (workload drivers, chaos, bench/CLI, parameters) is ``workloads``.
_PACKAGE_GROUP = {
    "sim": "sim.core", "svc": "svc", "zk": "zk.server", "mds": "mds",
    "core": "core.client", "fuse": "fuse", "pfs": "pfs",
    "hashing": "hashing", "resilience": "resilience",
    "workloads": "workloads", "chaos": "workloads", "bench": "workloads",
    "models": "workloads",
}


def group_of(relpath: str) -> str:
    """Host group of a file given relative to ``src/repro`` (POSIX
    separators). Raises ``KeyError`` for a package nobody mapped, so a new
    top-level package cannot silently land in a catch-all."""
    if relpath in _FILE_GROUP:
        return _FILE_GROUP[relpath]
    head, sep, _ = relpath.partition("/")
    if not sep:                      # cli.py, errors.py, __init__.py, ...
        return "workloads"
    return _PACKAGE_GROUP[head]


def host_groups(rows: Iterable[Tuple[str, int, float]], repro_root: str,
                bench_root: str) -> Dict[str, Dict[str, float]]:
    """Fold cProfile rows ``(filename, calls, self seconds)`` into the
    module groups. Files under ``bench_root`` (this package: the op
    generator loop) count as ``workloads``; builtins and the standard
    library are ``python``."""
    out = {g: {"calls": 0, "self_s": 0.0} for g in HOST_GROUPS}
    repro_root = os.path.join(os.path.abspath(repro_root), "")
    bench_root = os.path.join(os.path.abspath(bench_root), "")
    for filename, calls, self_s in rows:
        path = os.path.abspath(filename) if filename != "~" else "~"
        if path.startswith(repro_root):
            group = group_of(path[len(repro_root):].replace(os.sep, "/"))
        elif path.startswith(bench_root):
            group = "workloads"
        else:
            group = "python"
        out[group]["calls"] += calls
        out[group]["self_s"] += self_s
    return out


def _union(intervals: List[Tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        covered += hi - max(lo, reach)
        reach = hi
    return covered


def layer_self_times(spans: Sequence, roots: Iterable) -> Tuple[
        Dict[str, float], Dict[str, int]]:
    """Sum self time by column over the trees under ``roots``.

    ``spans`` need ``layer``, ``start``, ``end``, ``parent``, ``cpu_wait``
    attributes. Returns ``(seconds by column, RPC count by caller layer)``
    — an RPC is a ``sim.wire`` span, counted under the layer that issued
    it.
    """
    children: Dict[int, List] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    seconds: Dict[str, float] = defaultdict(float)
    rpcs: Dict[str, int] = defaultdict(int)

    def visit(span, lo: float, hi: float) -> None:
        lo, hi = max(span.start, lo), min(span.end, hi)
        if hi <= lo:
            return
        covered = []
        for child in children.get(id(span), ()):
            c_lo, c_hi = max(child.start, lo), min(child.end, hi)
            if c_hi > c_lo:
                covered.append((c_lo, c_hi))
            visit(child, lo, hi)
        own = (hi - lo) - _union(covered)
        if span.layer == "zk.server":
            queued = min(span.cpu_wait, own)
            seconds["zk.server.queue"] += queued
            seconds["zk.server.service"] += own - queued
        else:
            seconds[span.layer] += own
        if span.layer == "sim.wire" and span.parent is not None:
            rpcs[span.parent.layer] += 1

    for root in roots:
        visit(root, root.start, root.end)
    return seconds, rpcs
