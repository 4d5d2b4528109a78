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

# sha256(repr(sorted(fig.series.items())))[:16] at scale="tiny". The four
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
    "ablations": "9614ef9b08911173",
    "cmd": "c7b87a8c703ed78a",
    "fig10": "6b19034f115cf113",
    "fig9": "eca3123b3818f7fc",
    "singledir": "1b131d66dec0ac3a",
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
