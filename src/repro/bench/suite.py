"""The bench suite registry: one :class:`Suite` per committed
``benchmarks/BENCH_<name>.json``, all of them in :data:`SUITES`.

Everything that handles a suite reads this table and nothing else:
``repro bench`` (selector -> suite -> run/render/``--json``), ``repro
profile bench:<name>``, ``scripts/check_regression.py`` and — checked by
``tests/bench/test_suite_registry.py`` — the CI job matrix. The document
format is decided here once: how a document is serialised
(:func:`dumps`), which of its numbers are *tracked* against the committed
baseline and which are *floored* (:func:`check`), when a baseline is
stale (:func:`stale_leaves`), and the off/on shape three suites share
(:func:`ablation`).

To add a suite: write its workload module, add one ``Suite(...)`` entry
to the table at the bottom, and add its name to the ``suite:`` matrix in
``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import (async_bench, cache_bench, elastic_bench, kernel_bench,
               resilience_bench, resolve_bench, shard_bench)

Floors = List[Tuple[str, float, float]]       # (label, value, floor)
_ABSENT = object()


@dataclass(frozen=True)
class Suite:
    #: ``BENCH_<name>.json`` stem, ``check_regression.py --suite`` word,
    #: ``repro profile bench:<name>`` target and CI matrix entry.
    name: str
    #: The ``repro bench`` words that select it; ``""`` is the default.
    selector: str
    #: One line for ``--help`` and ``--list``.
    blurb: str
    run: Callable[..., Dict]                  # run(scale, **rerun)
    render: Callable[[Dict], str]
    #: label -> higher-is-better value, each held within the tolerance
    #: of the same label in the baseline. Must tolerate a malformed
    #: document (it is also applied to the baseline).
    tracked: Callable[[Dict], Dict[str, float]]
    #: Acceptance floors of a fresh document: ``value >= floor`` each.
    floors: Callable[[Dict], Floors]
    #: baseline -> the extra ``run`` keywords that reproduce it.
    rerun: Callable[[Dict], Dict] = lambda baseline: {}
    #: Simulated clock: a rerun reproduces the baseline to the byte.
    #: False for wall-clock numbers, which only hold a tolerance.
    exact: bool = True
    #: The scale the committed baseline is recorded (and refreshed) at.
    scale: str = "quick"

    @property
    def dest(self) -> str:
        """The argparse attribute the selector flag sets."""
        return self.selector.split()[0].lstrip("-").replace("-", "_") \
            if self.selector else ""

    @property
    def baseline(self) -> str:
        return f"benchmarks/BENCH_{self.name}.json"

    @property
    def refresh(self) -> str:
        """The one command that re-records the baseline."""
        scale = f"--scale {self.scale}" if self.scale != "quick" else ""
        return " ".join(filter(None, ["python -m repro bench", self.selector,
                                      scale, "--json", self.baseline]))

    def fresh(self, baseline: Dict) -> Dict:
        """Rerun at the scale and sweep the baseline recorded."""
        return self.run(scale=baseline.get("scale", "quick"),
                        **self.rerun(baseline))


def dumps(doc: Dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(doc: Dict, path: str) -> str:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
    return path


def check(suite: Suite, doc: Dict, baseline: Dict,
          tolerance: float = 0.25) -> List[str]:
    """Gate a fresh document; returns human-readable failures.

    Every tracked label must sit within ``tolerance`` of the baseline — a
    label the baseline lacks (a stale or hand-edited file) is itself a
    failure with the regenerate command, never a ``KeyError`` — and every
    floor must be met.
    """
    failures = []
    base = suite.tracked(baseline)
    for label, cur in suite.tracked(doc).items():
        if label not in base:
            failures.append(f"{label}: missing from baseline JSON — "
                            f"regenerate it with '{suite.refresh}'")
        elif cur < base[label] * (1.0 - tolerance):
            failures.append(f"{label}: {cur:,.0f} is >{tolerance:.0%} below "
                            f"baseline {base[label]:,.0f}")
    for label, value, floor in suite.floors(doc):
        if value < floor:
            failures.append(f"{label}: {value:.2f} is under the "
                            f"{floor:.2f} acceptance floor")
    return failures


def stale_leaves(doc: Dict, baseline: Dict) -> List[str]:
    """Dotted paths of the leaves on which a fresh document and the
    committed baseline disagree (present on one side only counts)."""
    def walk(a, b, path):
        if isinstance(a, list) and isinstance(b, list):
            a, b = dict(enumerate(a)), dict(enumerate(b))
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys(), key=str):
                yield from walk(a.get(key, _ABSENT), b.get(key, _ABSENT),
                                f"{path}.{key}" if path else str(key))
        elif a != b:
            yield path
    # Through JSON first, as the baseline has been (tuples become lists).
    return list(walk(json.loads(dumps(doc)), baseline, ""))


def ablation(name: str, selector: str, blurb: str, *, title: str,
             arms: Tuple[str, str], phases: Sequence[str],
             run_side: Callable[[bool, str], Dict],
             footer: Callable[[Dict], str], floors: Callable[[Dict], Floors],
             extra: Optional[Dict] = None) -> Suite:
    """A suite of the off/on shape: ``run_side`` runs the same phases on
    identical deployments with the feature off, then on; the
    document holds both sides and the on/off ``speedup`` per phase, the
    table one row per phase plus the suite's ``footer`` line, and the
    on-side throughput is what is tracked. ``arms`` names the two
    columns; ``extra`` is constant header fields (document and title).
    """
    extra = extra or {}

    def ops(side: Dict, phase: str) -> float:
        return side["phases"][phase]["ops_per_s"]

    def run(scale: str = "quick") -> Dict:
        off = run_side(False, scale)
        on = run_side(True, scale)
        return {"benchmark": f"{name}_ablation", "scale": scale,
                **extra, "off": off, "on": on,
                "speedup": {p: ops(on, p) / ops(off, p) if ops(off, p)
                            else 0.0 for p in phases}}

    def render(doc: Dict) -> str:
        head = " ".join(f"{k}={doc[k]}" for k in ("scale", *extra))
        lines = [f"{title} ({head}):",
                 f"  {'phase':<12} {arms[0] + ' ops/s':>12} "
                 f"{arms[1] + ' ops/s':>12} {'speedup':>8}"]
        for p in phases:
            lines.append(f"  {p:<12} {ops(doc['off'], p):>12,.0f} "
                         f"{ops(doc['on'], p):>12,.0f} "
                         f"{doc['speedup'][p]:>7.2f}x")
        return "\n".join(lines + [footer(doc)])

    def tracked(doc: Dict) -> Dict[str, float]:
        return {p: row["ops_per_s"]
                for p, row in doc.get("on", {}).get("phases", {}).items()
                if "ops_per_s" in row}

    return Suite(name, selector, blurb, run, render, tracked, floors)


SUITES: Dict[str, Suite] = {s.name: s for s in (
    ablation("mdcache", "", "client metadata-cache ablation, cache off vs on",
             title="cache ablation", arms=("off", "on"),
             phases=cache_bench.PHASES, run_side=cache_bench.run_side,
             footer=cache_bench.footer, floors=cache_bench.floors),
    Suite("shard", "--shards 1,2,4",
          "shard-scaling sweep at equal total ZK servers",
          shard_bench.run, shard_bench.render, shard_bench.tracked,
          shard_bench.floors, rerun=shard_bench.rerun),
    Suite("resilience", "--resilience",
          "overload campaign, resilience off vs on at 2x saturation",
          resilience_bench.run, resilience_bench.render,
          resilience_bench.tracked, resilience_bench.floors),
    ablation("resolve", "--resolve", "path-resolution ablation on the "
             "DL-training workloads, fat-client VFS walk vs thin client",
             title="resolve ablation", arms=("walk", "thin"),
             phases=resolve_bench.PHASES, run_side=resolve_bench.run_side,
             footer=resolve_bench.footer, floors=resolve_bench.floors,
             extra={"depth": resolve_bench.DEPTH}),
    Suite("kernel", "--kernel", "simulator events per wall-second (timer "
          "churn, RPC fan-out, spawn/interrupt, resource cascades)",
          kernel_bench.run, kernel_bench.render, kernel_bench.tracked,
          kernel_bench.floors, exact=False, scale="medium"),
    Suite("elastic", "--elastic", "autoscaler with live subtree migration "
          "vs the best static layouts on a skewed, shifting hotspot",
          elastic_bench.run, elastic_bench.render, elastic_bench.tracked,
          elastic_bench.floors),
    ablation("async", "--async-writes", "write-behind ablation on the "
             "mdtest file phases, sync commits vs async acked updates",
             title="async-write ablation", arms=("sync", "async"),
             phases=async_bench.PHASES, run_side=async_bench.run_side,
             footer=async_bench.footer, floors=async_bench.floors),
)}
