"""``python -m perfbench compare A.json B.json``: one row per (workload,
metric).

Exact metrics (simulated-clock values and call counts, which repeat to the
digit for a fixed seed) are compared to the digit. Host-clock metrics are
held against their bound, and reported *unresolved* when the repeats inside
either ledger already spread wider than the bound — a difference smaller
than the benchmark's own noise is not a finding.
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable, List, Optional

from .metrics import END_TO_END, PER_LAYER, Metric


def _worse_by(m: Metric, a: float, b: float) -> Optional[float]:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        return None if b == 0 else float("inf") * (1 if b > 0 else -1)
    change = (b - a) / abs(a)
    return change if m.better == "lower" else -change


def _repeat_spread(ledger_row: dict, name: str) -> float:
    """Spread of one ledger's own repeats as a share of their median: the
    inter-quartile distance, or the full range of fewer than four."""
    values = ledger_row.get("repeats", {}).get(name)
    if not values or len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    return width / statistics.median(values)


def verdict(m: Metric, a: float, b: float, spread: float = 0.0) -> str:
    if a == b:
        return "same"
    worse = _worse_by(m, a, b)
    if m.bound is None:                       # per-layer: no bound
        return "changed"
    if not m.exact and spread > m.bound:
        return "unresolved"
    if worse is not None and worse > m.bound:
        return "REGRESSED"
    if m.exact:
        return "worse" if worse and worse > 0 else "better"
    if worse is not None and worse < -m.bound:
        return "better"
    return "within bound"


def rows(a: dict, b: dict, layers: bool) -> Iterable[List[str]]:
    section = "per_layer" if layers else "end_to_end"
    catalogue = PER_LAYER if layers else END_TO_END
    for name_a, wa in a["workloads"].items():
        wb = b["workloads"].get(name_a)
        if wb is None or section not in wa or section not in wb:
            continue
        for m in catalogue:
            va, vb = wa[section][m.name], wb[section][m.name]
            if layers and va == vb:
                continue                      # the diff table: changes only
            spread = max(_repeat_spread(wa, m.name),
                         _repeat_spread(wb, m.name))
            worse = _worse_by(m, va, vb)
            yield [name_a, m.name, f"{va:.6g}", f"{vb:.6g}", m.unit,
                   "" if worse is None else f"{-100 * worse:+.2f}%",
                   "" if m.bound is None else f"{100 * m.bound:.0f}%",
                   verdict(m, va, vb, spread)]


def render(table: List[List[str]]) -> str:
    header = ["workload", "metric", "A", "B", "unit", "gain", "bound",
              "verdict"]
    widths = [max(len(r[i]) for r in [header] + table)
              for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths))
                     for r in [header] + table)


def main(path_a: str, path_b: str, layers: bool = False) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    table = list(rows(a, b, layers))
    print(render(table))
    return 1 if any(r[-1] == "REGRESSED" for r in table) else 0
