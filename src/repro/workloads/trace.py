"""Trace-replay workload: drive any filesystem client from an op trace.

Complements mdtest with application-shaped load: a trace is a sequence of
``(proc, op, args...)`` records — parsed from a simple text format or
generated synthetically — replayed closed-loop per process with the same
barrier/throughput accounting as mdtest. Useful for studying DUFS under
mixes the paper's benchmark can't express (e.g. create-heavy bursts
followed by stat storms, or rename churn).

Text format, one record per line (``#`` comments)::

    <proc> mkdir  <path>
    <proc> create <path>
    <proc> stat   <path>
    <proc> unlink <path>
    <proc> rmdir  <path>
    <proc> rename <src> <dst>
    <proc> readdir <path>
    <proc> write  <path> <offset> <nbytes>
    <proc> read   <path> <offset> <nbytes>
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import FSError
from ..sim.node import Cluster, Node
from ..sim.stats import LatencyRecorder
from .driver import run_phase

OPS_1ARG = ("mkdir", "create", "stat", "unlink", "rmdir", "readdir",
            "chmod", "truncate", "access")


@dataclass(frozen=True)
class TraceOp:
    proc: int
    op: str
    args: Tuple

    def __str__(self) -> str:
        return f"{self.proc} {self.op} " + " ".join(map(str, self.args))


@dataclass
class TraceResult:
    total_ops: int
    errors: int
    duration: float
    latencies: LatencyRecorder
    by_op: Dict[str, int]

    @property
    def throughput(self) -> float:
        return self.total_ops / self.duration if self.duration else 0.0


def parse_trace(text: str) -> List[TraceOp]:
    """Parse the text format; raises ValueError with line numbers."""
    out: List[TraceOp] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            proc = int(parts[0])
            op = parts[1]
            if op in OPS_1ARG:
                if op == "chmod":
                    args: Tuple = (parts[2], int(parts[3], 8))
                elif op == "truncate":
                    args = (parts[2], int(parts[3]))
                else:
                    args = (parts[2],)
            elif op == "rename":
                args = (parts[2], parts[3])
            elif op in ("read", "write"):
                args = (parts[2], int(parts[3]), int(parts[4]))
            else:
                raise ValueError(f"unknown op {op!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"trace line {lineno}: {raw!r}: {exc}") from None
        out.append(TraceOp(proc, op, args))
    return out


def format_trace(ops: Sequence[TraceOp]) -> str:
    return "\n".join(str(op) for op in ops) + "\n"


#: Op-type weights of a synthesized trace (stat-heavy, like mdtest logs).
_MIX = {"mkdir": 1, "create": 4, "stat": 8, "unlink": 2,
        "rename": 1, "readdir": 1, "rmdir": 0.5}
#: Cap on the directories one process holds at once: its root + 4 ** 2.
_MAX_DIRS = 1 + 4 ** 2


def synthesize_trace(
    n_procs: int,
    n_ops: int,
    seed: int = 0,
) -> List[TraceOp]:
    """Generate a random-but-valid trace.

    Replay runs each process's records concurrently with no cross-process
    ordering, so every generated op depends only on paths its own process
    created: process ``p`` works entirely inside its private subtree
    ``/p<p>`` (its first op creates it). ``_MIX`` weights the op types.
    """
    rng = random.Random(seed)
    dirs: List[List[str]] = [[] for _ in range(n_procs)]
    files: List[List[str]] = [[] for _ in range(n_procs)]
    counter = 0
    ops: List[TraceOp] = []
    names = list(_MIX)
    weights = list(_MIX.values())
    for p in range(n_procs):
        if len(ops) >= n_ops:
            break
        root = f"/p{p}"
        dirs[p].append(root)
        ops.append(TraceOp(p, "mkdir", (root,)))
    while len(ops) < n_ops:
        proc = rng.randrange(n_procs)
        d, f = dirs[proc], files[proc]
        if not d:
            continue
        op = rng.choices(names, weights)[0]
        counter += 1
        if op == "mkdir" and len(d) < _MAX_DIRS:
            path = f"{rng.choice(d)}/d{counter}"
            d.append(path)
            ops.append(TraceOp(proc, "mkdir", (path,)))
        elif op == "create":
            path = f"{rng.choice(d)}/f{counter}"
            f.append(path)
            ops.append(TraceOp(proc, "create", (path,)))
        elif op == "stat" and (f or len(d) > 1):
            target = rng.choice(f or d)
            ops.append(TraceOp(proc, "stat", (target,)))
        elif op == "unlink" and f:
            path = f.pop(rng.randrange(len(f)))
            ops.append(TraceOp(proc, "unlink", (path,)))
        elif op == "rename" and f:
            idx = rng.randrange(len(f))
            src = f[idx]
            dst = f"{rng.choice(d)}/r{counter}"
            f[idx] = dst
            ops.append(TraceOp(proc, "rename", (src, dst)))
        elif op == "readdir":
            ops.append(TraceOp(proc, "readdir", (rng.choice(d),)))
        elif op == "rmdir" and len(d) > 1:
            candidates = [x for x in d[1:]
                          if not any(y.startswith(x + "/") for y in f)
                          and not any(x2 != x and x2.startswith(x + "/")
                                      for x2 in d)]
            if candidates:
                path = rng.choice(candidates)
                d.remove(path)
                ops.append(TraceOp(proc, "rmdir", (path,)))
    return ops


def replay_trace(
    cluster: Cluster,
    mount_for: Callable[[int], object],
    node_for: Callable[[int], Node],
    ops: Sequence[TraceOp],
    n_procs: Optional[int] = None,
    stop_on_error: bool = False,
) -> TraceResult:
    """Replay a trace: each process runs its own ops in trace order,
    processes run concurrently (closed loop)."""
    sim = cluster.sim
    procs = n_procs if n_procs is not None \
        else (max((o.proc for o in ops), default=-1) + 1)
    per_proc: List[List[TraceOp]] = [[] for _ in range(procs)]
    for op in ops:
        if op.proc >= procs:
            raise ValueError(f"trace proc {op.proc} out of range")
        per_proc[op.proc].append(op)

    latencies = LatencyRecorder()
    by_op: Dict[str, int] = {}
    errors = [0]

    def worker(p: int) -> Generator:
        m = mount_for(p)
        for rec in per_proc[p]:
            fn = getattr(m, rec.op)
            t0 = sim.now
            try:
                yield from fn(*rec.args)
            except FSError:
                errors[0] += 1
                if stop_on_error:
                    raise
            latencies.record(rec.op, sim.now - t0)
            by_op[rec.op] = by_op.get(rec.op, 0) + 1

    nodes = [node_for(p) for p in range(procs)]
    phase = run_phase(sim, "trace", nodes,
                      [worker(p) for p in range(procs)], 0)
    return TraceResult(len(ops), errors[0], phase.duration, latencies, by_op)
