"""Benchmark harnesses regenerating every figure of the paper's evaluation,
and the registry of CI-gated bench suites (:mod:`repro.bench.suite`)."""

from .export import figure_to_csv, write_figure_csv
from .figures import (
    FigureResult,
    run_ablations,
    run_cmd_comparison,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_headline_claims,
    run_single_dir,
)
from .profile_cli import profile_targets, run_profile
from .report import render_figure, render_headline
from .shardmap_cli import render_shardmap, run_shardmap, run_shardmap_demo
from .suite import SUITES, Suite, check, write_json
from .trace_cli import run_trace, trace_rows

__all__ = [
    "FigureResult",
    "run_ablations", "run_cmd_comparison",
    "run_fig7", "run_fig8", "run_fig9", "run_fig10",
    "run_fig11", "run_headline_claims", "run_single_dir",
    "figure_to_csv", "write_figure_csv",
    "render_figure", "render_headline", "run_trace", "trace_rows",
    "SUITES", "Suite", "check", "write_json",
    "run_shardmap", "run_shardmap_demo", "render_shardmap",
    "run_profile", "profile_targets",
]
