#!/usr/bin/env python
"""CI gate: rerun one benchmark suite and compare against its committed
baseline JSON.

    PYTHONPATH=src python scripts/check_regression.py --suite <name>
        [--baseline PATH] [--tolerance 0.25]
    PYTHONPATH=src python scripts/check_regression.py --list

The suites, their baselines, refresh commands and acceptance floors all
come from the one registry, ``repro.bench.suite.SUITES``; ``--list`` (and
the tail of ``--help``) prints them. The suite is rerun at the scale
recorded in its baseline, its table is printed, and the exit code is 1
when ``repro.bench.suite.check`` reports a regression — a tracked
throughput more than the tolerance (default 25%) below baseline, or an
acceptance floor no longer met — and 2 when the baseline file is missing.

Every suite runs on the simulated clock and takes no seed, so any drift
is a real behavioural change in the model, not runner noise: a fresh
document that is not *equal* to the baseline also prints a non-fatal
``note:`` naming the first differing leaf, so a baseline gone stale
inside the tolerance is visible.

Refresh a baseline after an intentional perf change with the suite's
refresh command.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.suite import SUITES, check, stale_leaves

ROOT = pathlib.Path(__file__).resolve().parent.parent


def listing() -> str:
    """Every suite with its baseline, refresh command and — read off the
    committed baseline — its acceptance floors."""
    lines = []
    for name, suite in sorted(SUITES.items()):
        lines += [f"{name:<12} {suite.blurb}",
                  f"{'':<12} baseline {suite.baseline}",
                  f"{'':<12} refresh: PYTHONPATH=src {suite.refresh}"]
        path = ROOT / suite.baseline
        if path.exists():
            lines += [f"{'':<12} floor: {label} >= {floor:g} "
                      f"(baseline {value:.2f})"
                      for label, value, floor
                      in suite.floors(json.loads(path.read_text()))]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="known suites:\n" + listing())
    parser.add_argument("--suite", choices=sorted(SUITES), required=False)
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: the suite's file "
                             "under benchmarks/)")
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument("--list", action="store_true",
                        help="list suites, baselines, refresh commands "
                             "and floors")
    args = parser.parse_args(argv)

    if args.list:
        print(listing())
        return 0
    if args.suite is None:
        parser.error("--suite is required (or use --list)")
    suite = SUITES[args.suite]
    refresh = f"PYTHONPATH=src {suite.refresh}"

    baseline_path = pathlib.Path(args.baseline) if args.baseline \
        else ROOT / suite.baseline
    if not baseline_path.exists():
        print(f"error: baseline {baseline_path} not found — generate it "
              f"with '{refresh}'", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())

    doc = suite.fresh(baseline)
    print(suite.render(doc))

    failures = check(suite, doc, baseline, tolerance=args.tolerance)
    if failures:
        print()
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        print(f"\nif intentional, refresh the baseline: {refresh}",
              file=sys.stderr)
        return 1
    print(f"\nok: {len(suite.floors(doc))} floor(s) met, within "
          f"{args.tolerance:.0%} of baseline ({baseline_path.name})")
    stale = stale_leaves(doc, baseline)
    if stale:
        print(f"note: {len(stale)} leaves differ from the committed "
              f"baseline (first: {stale[0]}) — refresh with {refresh}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
