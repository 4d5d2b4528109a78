#!/usr/bin/env python
"""Per-layer simulated self time per op, for any phase of a span dump.

    python3 perfbench/run.py --workload paper-lat --trace 1 \\
        --spans-out SPANS.jsonl.gz
    python scripts/phase_layers.py SPANS.jsonl.gz --phase file_remove

The dump holds a row for every span of every measured phase; the ledger's
per-layer table reports only ``dir_create``, ``file_create`` and
``file_stat``. An op is a root ``fuse`` span that ended. A root span of
any other layer is no op's time and is left out of the columns: the
recorder parents no span to a process an op spawned. Such spans that
start inside an op — a synchronous ``unlink``'s back-end reclaim, a
hinted ``stat``'s back-end stat beside its znode read, the next spare a
synchronous ``create`` starts — are listed below the columns by layer (count, mean µs), so work an op overlaps or
leaves behind stays visible. Self time is the ledger's own reducer
(``perfbench/reduce.py``); the rows carry no core-queue wait, so
``zk.server`` is one column. The columns sum to the mean root-span
duration.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import pathlib
import sys
from typing import Dict, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.reduce import SIM_COLUMNS, layer_self_times  # noqa: E402

#: The ledger's columns with the two ``zk.server`` halves as one.
COLUMNS = tuple(dict.fromkeys(
    "zk.server" if c.startswith("zk.server.") else c for c in SIM_COLUMNS))


class _Span:
    __slots__ = ("layer", "start", "end", "parent", "cpu_wait")

    def __init__(self, row: dict, spans: list):
        self.layer = row["layer"]
        self.start = row["sim_start"]
        self.end = math.inf if row["sim_end"] is None else row["sim_end"]
        self.parent = None if row["parent"] is None else spans[row["parent"]]
        self.cpu_wait = 0.0


def _load(path: str, phase: str) -> Tuple[list, list, list]:
    """Every span, then ``phase``'s ended root spans: the ``fuse`` ones
    (the ops) and the others. A row's ``parent`` is the index of an
    earlier row."""
    spans: list = []
    roots, others = [], []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            span = _Span(row, spans)
            spans.append(span)
            if row["phase"] == phase and span.parent is None \
                    and span.end != math.inf:
                (roots if span.layer == "fuse" else others).append(span)
    return spans, roots, others


def phase_layers(path: str, phase: str) -> Tuple[int, Dict[str, float],
                                                  float]:
    """``(ops, self µs per op by column, mean root-span µs)`` of
    ``phase``."""
    spans, roots, _ = _load(path, phase)
    seconds, _ = layer_self_times(spans, roots)
    n = max(1, len(roots))
    per_op = dict.fromkeys(COLUMNS, 0.0)
    for column, s in seconds.items():
        per_op[column.rsplit(".", 1)[0] if column.startswith("zk.server.")
               else column] += s / n * 1e6
    mean_root = sum(r.end - r.start for r in roots) / n * 1e6
    return len(roots), per_op, mean_root


def detached_roots(path: str, phase: str) -> Dict[str, Tuple[int, float]]:
    """``layer -> (count, mean µs)`` of ``phase``'s ended root spans of a
    layer other than ``fuse`` that start while some op of the phase is
    in flight."""
    _, roots, others = _load(path, phase)
    found: Dict[str, list] = {}
    for span in others:
        if any(r.start <= span.start <= r.end for r in roots):
            found.setdefault(span.layer, []).append(span.end - span.start)
    return {layer: (len(d), sum(d) / len(d) * 1e6)
            for layer, d in sorted(found.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spans", help="gzip JSONL from perfbench --spans-out")
    ap.add_argument("--phase", required=True,
                    choices=("dir_create", "dir_stat", "dir_remove",
                             "file_create", "file_stat", "file_remove"))
    args = ap.parse_args(argv)
    ops, per_op, mean_root = phase_layers(args.spans, args.phase)
    if not ops:
        print(f"no completed {args.phase} op in {args.spans}")
        return 1
    print(f"{args.phase}: {ops} ops, self µs per op")
    for column in COLUMNS:
        print(f"  {column:<14} {per_op[column]:10.1f}")
    print(f"  {'sum':<14} {sum(per_op.values()):10.1f}")
    print(f"  {'mean root':<14} {mean_root:10.1f}")
    detached = detached_roots(args.spans, args.phase)
    if detached:
        print("root spans started inside an op (no op's time above)")
        for layer, (count, mean) in detached.items():
            print(f"  {layer:<14} {count:6d} spans, mean {mean:8.1f} µs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
