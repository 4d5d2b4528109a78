#!/usr/bin/env python
"""Replay an application-shaped operation trace against DUFS.

The mdtest benchmark only measures homogeneous phases; real applications
mix operations. This example synthesizes a stat-heavy mixed trace (or
loads one from a file in the documented text format), replays it against a
DUFS deployment, and prints throughput plus per-op latency percentiles.

Run:  python examples/trace_replay.py [--ops 2000] [--procs 16]
                                      [--trace FILE]
"""

import argparse

from repro.core import build_dufs_deployment
from repro.workloads.trace import (
    format_trace,
    parse_trace,
    replay_trace,
    synthesize_trace,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--procs", type=int, default=16)
    parser.add_argument("--trace", type=str, default=None,
                        help="replay this trace file instead of synthesizing")
    parser.add_argument("--dump", type=str, default=None,
                        help="write the synthesized trace to a file")
    args = parser.parse_args()

    if args.trace:
        ops = parse_trace(open(args.trace).read())
        print(f"loaded {len(ops)} ops from {args.trace}")
    else:
        ops = synthesize_trace(args.procs, args.ops, seed=11)
        print(f"synthesized {len(ops)} ops for {args.procs} processes "
              "(stat-heavy mix: 8 stat : 4 create : 2 unlink : ...)")
    if args.dump:
        open(args.dump, "w").write(format_trace(ops))
        print(f"trace written to {args.dump}")

    dep = build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=4,
                                backend="lustre", trace=True)
    res = replay_trace(dep.cluster, dep.mount_for, dep.node_for, ops)

    print(f"\nreplayed {res.total_ops} ops in {res.duration:.3f}s simulated "
          f"-> {res.throughput:,.0f} ops/s ({res.errors} errors)")
    print(f"\n{'op':>10} {'count':>7} {'p50':>9} {'p95':>9} {'p99':>9}")
    for op in sorted(res.by_op):
        s = res.latencies.summary(op)
        print(f"{op:>10} {res.by_op[op]:>7} {s.p50 * 1e3:>7.2f}ms "
              f"{s.p95 * 1e3:>7.2f}ms {s.p99 * 1e3:>7.2f}ms")

    print("\nmetadata-only ops (mkdir/stat of dirs/readdir) never touched "
          "the Lustre back-ends;")
    print("file ops were spread over both instances: "
          + str([sum(dep.bus.ops.get(k) for k in dep.bus.keys()
                     if k.startswith(f"lustre/{be.mds.endpoint}."))
                 for be in dep.backends])
          + " MDS requests each")


if __name__ == "__main__":
    main()
