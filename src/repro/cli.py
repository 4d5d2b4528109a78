"""Command-line entry point: regenerate any figure of the paper.

Usage::

    python -m repro fig7 [--scale quick|medium|full]
    python -m repro fig8 | fig9 | fig10 | fig11 | claims | ablations
    python -m repro trace [--backend local|lustre|pvfs] [--batch N] [--cache]
                          [--shards N] [--json PATH|-]
    python -m repro bench [--json PATH]     # mdcache ablation, cache on vs off
    python -m repro bench --shards 1,2,4    # shard-scaling sweep (equal total
                                            # ZK servers split across shards)
    python -m repro bench --resilience      # overload campaign, resilience
                                            # off vs on at 2x saturation
    python -m repro bench --resolve         # path-resolution ablation: thin
                                            # client vs fat-client VFS walk
    python -m repro bench --kernel          # simulator events/sec bench
                                            # (the hot-path speed gate)
    python -m repro bench --async           # write-behind ablation: async
                                            # acked updates vs sync commits
    python -m repro bench --elastic         # elastic-vs-static arms on the
                                            # skewed shifting-hotspot load
    python -m repro shardmap [--json -]     # elastic plane state dump: map,
                                            # epochs, per-shard load,
                                            # migrations, decisions
    python -m repro profile kernel          # cProfile any bench/figure and
    python -m repro profile fig7            # print the hot-path table
    python -m repro chaos [--seed N]        # random minority ZK crashes
    python -m repro chaos --shards 4        # sharded metadata plane + shard:<k>
    python -m repro chaos --resilience      # deadlines+budget+breakers+hedging
    python -m repro chaos --shards 2 --elastic  # elastic plane under faults
                                                # (+ migration:src/dst targets)
    python -m repro all --scale medium
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    SUITES,
    render_figure,
    render_headline,
    run_ablations,
    run_cmd_comparison,
    run_single_dir,
    write_figure_csv,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_headline_claims,
    write_json,
)

RUNNERS = {
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "singledir": run_single_dir,
    "cmd": run_cmd_comparison,
    "ablations": run_ablations,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures of 'Can a Decentralized "
                    "Metadata Service Layer benefit Parallel Filesystems?' "
                    "(CLUSTER 2011) on the simulated cluster.")
    parser.add_argument("target",
                        choices=[*RUNNERS, "claims", "chaos", "trace",
                                 "bench", "shardmap", "profile", "all"],
                        help="which figure/table to regenerate "
                             "(or 'chaos': a fault-injection run; 'trace': "
                             "a traced mdtest with per-endpoint op metrics; "
                             "'bench': one bench suite, picked by its flag — "
                             + "; ".join(f"{s.selector or '(default)'}: "
                                         f"{s.blurb}"
                                         for s in SUITES.values()) + "; "
                             "'shardmap': the elastic metadata plane state "
                             "dump; 'profile': run a bench/figure under "
                             "cProfile)")
    parser.add_argument("subtarget", nargs="?", default=None,
                        help="for 'profile': which target to profile "
                             "(e.g. kernel, kernel:fanout, bench, fig7)")
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "medium", "full"),
                        help="sweep size: quick (seconds), medium, or full "
                             "(the paper's axes; minutes)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the random fault schedule, link loss and "
                             "retry jitter (chaos only)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each figure as CSV into DIR")
    parser.add_argument("--chart", action="store_true",
                        help="render ASCII charts of each figure's panels")
    parser.add_argument("--deployment", default="dufs",
                        choices=("dufs", "lustre", "pvfs"),
                        help="chaos target deployment (chaos only)")
    parser.add_argument("--ops", type=int, default=400,
                        help="chaos op-stream length (chaos only)")
    parser.add_argument("--backend", default="local",
                        choices=("local", "lustre", "pvfs"),
                        help="DUFS back-end filesystem (trace only)")
    parser.add_argument("--batch", type=int, default=1,
                        help="ZooKeeper leader write-batch size; >1 enables "
                             "proposal coalescing (trace only)")
    parser.add_argument("--cache", action="store_true",
                        help="enable the client metadata cache (trace and "
                             "chaos; 'bench' always runs cache off AND on)")
    # One on/off flag per bench suite; chaos reads three of them too.
    chaos_use = {
        "resilience": "chaos: run the DUFS clients with the full resilience "
                      "policy (deadline propagation, retry budget, "
                      "breakers, hedged reads)",
        "elastic": "chaos: run the elastic plane (needs --shards >= 2)",
        "async_writes": "chaos: run the DUFS clients in write-behind mode",
    }
    for suite in SUITES.values():
        if suite.selector and " " not in suite.selector:     # a bare flag
            parser.add_argument(
                suite.selector, dest=suite.dest, action="store_true",
                help="; ".join(filter(None, [f"bench: {suite.blurb}",
                                             chaos_use.get(suite.dest)])))
    parser.add_argument("--async", dest="async_writes", action="store_true",
                        help="short for --async-writes")
    parser.add_argument("--top", type=int, default=25,
                        help="profile: how many hot-path rows to print")
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumtime", "ncalls"),
                        help="profile: hot-path table sort key")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH "
                             "(bench and trace; '-' prints trace rows as "
                             "JSON to stdout instead of the table)")
    parser.add_argument("--shards", default=None,
                        help="metadata shards: an int for trace/chaos "
                             "(independent ZK ensembles behind a sharded "
                             "metadata service), or a comma list like "
                             "'1,2,4' for bench (runs the shard-scaling "
                             "sweep at equal total ZK servers)")
    args = parser.parse_args(argv)

    shard_counts = None
    if args.shards is not None:
        try:
            shard_counts = [int(x) for x in args.shards.split(",") if x]
        except ValueError:
            parser.error(f"--shards must be an int or comma list, "
                         f"got {args.shards!r}")
        if not shard_counts or any(n < 1 for n in shard_counts):
            parser.error("--shards values must be >= 1")

    targets = list(RUNNERS) + ["claims"] if args.target == "all" \
        else [args.target]
    for target in targets:
        if target == "chaos":
            from .chaos import run_chaos
            from .models.params import (AsyncParams, CacheParams,
                                        ElasticParams, FaultToleranceParams)
            cache = CacheParams.caching_on() \
                if args.cache and args.deployment == "dufs" else None
            fault = FaultToleranceParams.resilience_on(hedge_enabled=True) \
                if args.resilience and args.deployment == "dufs" else None
            awrite = None
            if args.async_writes:
                if args.deployment != "dufs":
                    parser.error("chaos --async needs the DUFS deployment")
                awrite = AsyncParams.async_on()
            n_shards = shard_counts[0] if shard_counts else 1
            elastic = None
            if args.elastic:
                if args.deployment != "dufs" or n_shards < 2:
                    parser.error("chaos --elastic needs the DUFS deployment "
                                 "with --shards >= 2")
                elastic = ElasticParams.elastic_on()
            result = run_chaos(args.deployment, seed=args.seed, ops=args.ops,
                               cache=cache, shards=n_shards,
                               fault=fault, elastic=elastic, awrite=awrite)
            print(result.summary())
        elif target == "trace":
            from .bench.trace_cli import run_trace
            print(run_trace(scale=args.scale, backend=args.backend,
                            batch=args.batch, cache=args.cache,
                            shards=shard_counts[0] if shard_counts else 1,
                            json_path=args.json))
        elif target == "profile":
            from .bench import profile_targets, run_profile
            if not args.subtarget:
                parser.error("profile needs a target, e.g. 'repro profile "
                             f"kernel' (one of: {', '.join(profile_targets())})")
            try:
                print(run_profile(args.subtarget, scale=args.scale,
                                  top=args.top, sort=args.sort))
            except ValueError as exc:
                parser.error(str(exc))
        elif target == "shardmap":
            from .bench import run_shardmap
            print(run_shardmap(scale=args.scale, json_path=args.json))
        elif target == "bench":
            chosen = [s for s in SUITES.values()
                      if s.dest and getattr(args, s.dest)] \
                or [s for s in SUITES.values() if not s.selector]
            if len(chosen) > 1:
                parser.error("bench runs one suite at a time, got "
                             + " and ".join(s.selector.split()[0]
                                            for s in chosen))
            suite, = chosen
            sweep = {"shard_counts": shard_counts} if shard_counts else {}
            doc = suite.run(scale=args.scale, **sweep)
            print(suite.render(doc))
            if args.json:
                print(f"[json] {write_json(doc, args.json)}")
        elif target == "claims":
            scale = args.scale if args.scale != "quick" else "medium"
            print(render_headline(run_headline_claims(scale=scale)))
        else:
            fig = RUNNERS[target](scale=args.scale)
            print(render_figure(fig))
            if args.chart:
                from .bench.chart import render_figure_charts
                print()
                print(render_figure_charts(fig))
            if args.csv:
                print(f"[csv] {write_figure_csv(fig, args.csv)}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
