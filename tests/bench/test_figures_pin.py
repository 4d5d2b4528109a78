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

# sha256(repr(sorted(fig.series.items())))[:16] at scale="tiny".
GOLDEN = {
    "ablations": "81da02fb9f022647",
    "cmd": "c7b87a8c703ed78a",
    "fig10": "d46b82e1c84dda63",
    "fig9": "6130137df560b9e5",
    "singledir": "9b39f1673761fd76",
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
