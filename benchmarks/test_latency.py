"""Per-operation latency distributions (not in the paper, which reports
only throughput — latency is where the architectural differences show
up most directly)."""

import pytest

from repro.bench.figures import _run_basic, _run_dufs
from repro.workloads.mdtest import ALL_PHASES

from .conftest import run_once


def test_latency_profile_dufs_vs_lustre(benchmark):
    def measure():
        lustre, _ = _run_basic("lustre", 64, 12)
        dufs = _run_dufs("lustre", 64, 12)
        return lustre, dufs

    lustre, dufs = run_once(benchmark, measure)
    print("\nper-op latency (64 procs), Basic Lustre vs DUFS(2x Lustre):")
    print(f"{'phase':>14} {'lustre p50':>12} {'lustre p99':>12} "
          f"{'dufs p50':>10} {'dufs p99':>10}")
    for phase in ALL_PHASES:
        ls = lustre.latency(phase)
        ds = dufs.latency(phase)
        print(f"{phase:>14} {ls.p50 * 1e3:>10.2f}ms {ls.p99 * 1e3:>10.2f}ms "
              f"{ds.p50 * 1e3:>8.2f}ms {ds.p99 * 1e3:>8.2f}ms")

    # Directory stats through ZooKeeper are far quicker than through the
    # MDS under load...
    assert dufs.latency("dir_stat").p50 < lustre.latency("dir_stat").p50
    # ...while DUFS mutations pay the quorum round (higher p50 than a
    # single-server intent RPC at this modest load).
    assert dufs.latency("dir_create").p50 > \
        lustre.latency("dir_create").p50 * 0.5
    # Sanity: every phase produced full summaries.
    for res in (lustre, dufs):
        for phase in ALL_PHASES:
            s = res.latency(phase)
            assert s is not None and s.p99 >= s.p50 > 0


def test_lustre_tail_grows_with_load(benchmark):
    """Lustre's p99 inflates disproportionately at 256 procs (queueing +
    thrash); this is the latency view of the Fig. 10 decline."""

    def measure():
        lo, _ = _run_basic("lustre", 32, 12)
        hi, _ = _run_basic("lustre", 256, 12)
        return lo, hi

    lo, hi = run_once(benchmark, measure)
    lo_p99 = lo.latency("dir_create").p99
    hi_p99 = hi.latency("dir_create").p99
    print(f"\nlustre dir_create p99: 32 procs={lo_p99 * 1e3:.2f}ms "
          f"256 procs={hi_p99 * 1e3:.2f}ms ({hi_p99 / lo_p99:.1f}x)")
    assert hi_p99 > 3 * lo_p99
