#!/usr/bin/env python3
"""The driver's entry point: one workload, one seed, one result line.

``python3 perfbench/run.py --workload paper-lat --seed 1 --seconds 8 --trace 0``

prints every metric by name and unit, the output checks, and as the last
line of stdout one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exits non-zero without a result line when the
program under ``src/`` is missing or a pass crashes.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

try:
    from perfbench import runner
    from perfbench.workloads import BY_NAME, SCALES
except ModuleNotFoundError as exc:
    raise SystemExit(f"perfbench: the program under src/ is missing "
                     f"({exc})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="host seconds of timed repeats to collect")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="std")
    ap.add_argument("--spans-out", help="with --trace 1: dump the spans "
                                        "here as gzip JSONL")
    args = ap.parse_args(argv)
    result = runner.measure(args.workload, args.seed, args.seconds,
                            scale=args.scale, layers=bool(args.trace),
                            spans_out=args.spans_out)
    print(runner.report(result))
    print(runner.contract_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
