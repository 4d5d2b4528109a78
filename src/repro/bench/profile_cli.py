"""``repro profile``: run any bench or figure target under cProfile.

Prints the top hot-path table (sorted by internal time by default), so
"why is this campaign slow" is one command instead of a scratch script::

    PYTHONPATH=src python -m repro profile fig7 --scale quick
    PYTHONPATH=src python -m repro profile bench --sort cumtime --top 40

Profiling adds substantial overhead (it traces every Python and C call),
so the absolute numbers are inflated — use the table for *relative*
ranking and the ledger (``perfbench/``) for honest wall-clock numbers.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, Dict, List

from .suite import SUITES


def _targets() -> Dict[str, Callable[..., object]]:
    """Profile target -> ``fn(scale=)``: every figure the CLI can
    regenerate and every bench suite as ``bench:<name>`` (``bench`` alone
    is the CLI's default suite)."""
    from ..cli import RUNNERS            # cli imports this package
    targets = dict(RUNNERS)
    for suite in SUITES.values():
        targets[f"bench:{suite.name}"] = suite.run
        if not suite.selector:
            targets["bench"] = suite.run
    return targets


def profile_targets() -> List[str]:
    return sorted(_targets())


def run_profile(target: str, scale: str = "quick",
                top: int = 25, sort: str = "tottime") -> str:
    """Profile one target; returns the rendered hot-path table."""
    targets = _targets()
    if target not in targets:
        raise ValueError(
            f"unknown profile target {target!r} "
            f"(choose from: {', '.join(sorted(targets))})")
    prof = cProfile.Profile()
    prof.enable()
    try:
        targets[target](scale=scale)
    finally:
        prof.disable()
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    header = (f"profile: target={target} scale={scale} "
              f"sort={sort} top={top}\n"
              "(profiler overhead inflates absolute times — rank only)\n")
    return header + buf.getvalue()
