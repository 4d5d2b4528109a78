"""Pin the figure runners that build a basic (non-DUFS) filesystem by hand.

``run_single_dir``, ``run_cmd_comparison``, ablation #1 and ``_run_basic``
each spell "8 client nodes + one filesystem + MdtestConfig + run_mdtest";
recorded on the tree that still had the copies, so folding them into one
helper must reproduce every series value (the CMD global-lock counts and
the DLM revocation/lookup counts included) digit for digit.
"""

import hashlib

import pytest

from repro.bench.figures import (run_ablations, run_cmd_comparison,
                                 run_fig9, run_fig10, run_single_dir)

# sha256(repr(sorted(fig.series.items())))[:16] at scale="tiny". All five
# were re-recorded when a follower began answering a forwarded write at
# the instant it applies it, not at the next log_delay tick: every cell
# whose op writes through ZooKeeper moved up and no other cell moved
# (fig10 dufs-lustre dir_create 2,174 -> 2,256 ops/s, file_create 1,883 ->
# 2,025, file_remove 1,726 -> 1,796; fig9 file_create 2,032 -> 2,133 on
# backends2 and -> 2,103 on backends4; the cmd DUFS dir_create and
# dir_remove cells; ablations zoo_create/zk4 2,499 -> 2,795 and
# layout=amortized 2,271 -> 2,374). Before that, the four
# with DUFS series were re-recorded when a synchronous file create began
# taking a spare, its physical file (and, under layout=paper, its hash
# chain) made ahead of it: every DUFS file_create cell moved up
# (dufs-lustre 1,650 -> 1,883 ops/s in fig10, dufs-pvfs 233 -> 254,
# layout=paper 838 -> 1,040), and three file_stat cells moved in their
# last digits (fig9/backends4 7,650.40 -> 7,650.35, singledir in the 13th
# digit, layout=paper 4,369.2 -> 4,368.3), from the spare the phase's
# last create left running. Before that, the four
# with DUFS series were re-recorded when a file stat with a FID hint began
# starting its back-end stat beside its znode read: only the DUFS
# file_stat cells moved (dufs-lustre 5,547 -> 7,648 ops/s, dufs-pvfs
# 4,578 -> 5,921, ablation layout=paper 3,430 -> 4,369). Before that,
# fig9, fig10 and singledir were re-recorded when a synchronous unlink began
# returning before its back-end unlink (a process of its own, which the
# caller's next unlink waits for): every DUFS file_remove cell moved,
# dufs-lustre 1,364 -> 1,726 ops/s and dufs-pvfs 236 -> 304 (the PVFS
# unlink, slower than the znode delete, still sets the pace; only the
# delete overlaps it). Before that, the four
# with DUFS series were re-recorded when each client began making its
# hash-directory chain at mount. The cells that moved: every DUFS
# file_create except layout=paper (up, 1.1x to 2.7x); fig10's dufs-pvfs
# file_remove (239.2 -> 236.0 ops/s); and the last digits of the other
# file_remove cells and of fig9/backends4, fig10/dufs-pvfs and singledir
# file_stat.
GOLDEN = {
    "ablations": "4c1d75c2083a59c2",
    "cmd": "a63a401a8f216eba",
    "fig10": "970862871cd0d69e",
    "fig9": "bc71d6f5d9b16daa",
    "singledir": "a67d32b04f239a7b",
}

RUNNERS = {"fig9": run_fig9, "fig10": run_fig10, "singledir": run_single_dir,
           "cmd": run_cmd_comparison, "ablations": run_ablations}


def _digest(fig) -> str:
    return hashlib.sha256(
        repr(sorted(fig.series.items())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_figure_series_pin(name):
    fig = RUNNERS[name]("tiny")
    assert _digest(fig) == GOLDEN[name], sorted(fig.series.items())
