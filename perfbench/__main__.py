"""``python -m perfbench run|compare`` — the whole ledger in one command.

``run`` measures every workload (timed repeats, counted and traced pass),
prints every metric by name with its unit, checks the outputs, writes the
ledger JSON and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import compare, runner

sys.path[:0] = [os.path.join(runner.ROOT, "src")]
from .workloads import BY_NAME, SCALES  # noqa: E402


def _run(args) -> int:
    names = args.workload or list(BY_NAME)
    ledger = {"seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "workloads": {}}
    for name in names:
        spans = None
        if args.spans_out:
            os.makedirs(args.spans_out, exist_ok=True)
            spans = os.path.join(args.spans_out, f"{name}.spans.jsonl.gz")
        result = runner.measure(name, args.seed, args.seconds,
                                scale=args.scale, layers=True,
                                spans_out=spans)
        print(runner.report(result), flush=True)
        ledger["workloads"][name] = result
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
            fh.write("\n")
    failed = [f"{name}: {check}" for name, r in ledger["workloads"].items()
              for check, ok in r["checks"].items() if not ok]
    for line in failed:
        print(f"FAILED CHECK {line}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m perfbench",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=8.0,
                     help="host seconds of timed repeats per workload")
    run.add_argument("--scale", choices=SCALES, default="std")
    run.add_argument("--workload", action="append", choices=list(BY_NAME),
                     help="only this workload (repeatable)")
    run.add_argument("--out", help="write the ledger JSON here")
    run.add_argument("--spans-out", help="directory for gzip JSONL span "
                                         "dumps, one per workload")
    cmp_ = sub.add_parser("compare", help="diff two ledgers")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.add_argument("--layers", action="store_true",
                      help="print the per-layer diff table instead")
    args = ap.parse_args(argv)
    if args.command == "run":
        return _run(args)
    return compare.main(args.a, args.b, layers=args.layers)


if __name__ == "__main__":
    raise SystemExit(main())
