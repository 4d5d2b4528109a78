"""Workload generators and the closed-loop benchmark driver."""

from .dltrain import DLTrainSpec, epoch_order
from .driver import PhaseResult, run_phase
from .mdtest import MdtestConfig, MdtestResult, run_mdtest
from .treegen import TreeSpec, tree_dirs

__all__ = [
    "DLTrainSpec", "epoch_order",
    "PhaseResult", "run_phase",
    "MdtestConfig", "MdtestResult", "run_mdtest",
    "TreeSpec", "tree_dirs",
]
