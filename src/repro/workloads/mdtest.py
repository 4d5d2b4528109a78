"""The mdtest metadata benchmark (paper §V, [13]).

Reproduces the measurement procedure: a shared scaffold tree (fan-out /
depth per :class:`TreeSpec`), ``items_per_proc`` items per process spread
over the tree's directories, and six barrier-separated phases — directory
creation / stat / removal and file creation / stat / removal — each
reporting aggregate operations per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Sequence, Tuple

from ..sim.node import Cluster, Node
from ..sim.stats import LatencyRecorder
from .driver import PhaseResult, run_phase
from .treegen import TreeSpec, item_dir, tree_dirs

ALL_PHASES = ("dir_create", "dir_stat", "dir_remove",
              "file_create", "file_stat", "file_remove")

DIR_PHASES = ("dir_create", "dir_stat", "dir_remove")
FILE_PHASES = ("file_create", "file_stat", "file_remove")


@dataclass
class MdtestConfig:
    n_procs: int = 8
    items_per_proc: int = 20
    tree: TreeSpec = field(default_factory=TreeSpec)
    phases: Tuple[str, ...] = ALL_PHASES
    single_dir: bool = False   # paper's "many files in a single directory"
    # Simulated slack at each MPI barrier. Real mdtest phases are seconds
    # apart; without slack, a replica lagging a few ms behind the last
    # commit (ZooKeeper is sequentially consistent, not linearizable for
    # reads) can serve ENOENT for entries created microseconds earlier.
    barrier_slack: float = 0.05
    # Write-behind deployments: end every worker (scaffold and measured
    # phases alike) with an ``m.flush()`` drain barrier, so a phase's
    # throughput includes committing its own mutations — acked-but-
    # undrained work never leaks past the phase boundary into the next
    # phase's wall clock. Ignored for mounts without ``flush``.
    drain: bool = False


@dataclass
class MdtestResult:
    config: MdtestConfig
    phases: Dict[str, PhaseResult]
    latencies: LatencyRecorder = field(default_factory=LatencyRecorder)

    def throughput(self, phase: str) -> float:
        return self.phases[phase].throughput

    def latency(self, phase: str):
        """Per-op latency summary (mean/p50/p95/p99) for a phase."""
        return self.latencies.summary(phase)


def _item_paths(config: MdtestConfig, kind: str) -> List[List[str]]:
    """Per-process item paths (``kind`` is 'dir' or 'file')."""
    dirs = ([config.tree.root] if config.single_dir
            else tree_dirs(config.tree))
    out = []
    for p in range(config.n_procs):
        paths = []
        for i in range(config.items_per_proc):
            base = (config.tree.root if config.single_dir
                    else item_dir(config.tree, dirs, p, i))
            paths.append(f"{base}/m{kind[0]}.{p}.{i}")
        out.append(paths)
    return out


def _op_for(phase: str) -> Callable:
    return {
        "dir_create": lambda m, p: m.mkdir(p),
        "dir_stat": lambda m, p: m.stat(p),
        "dir_remove": lambda m, p: m.rmdir(p),
        "file_create": lambda m, p: m.create(p),
        "file_stat": lambda m, p: m.stat(p),
        "file_remove": lambda m, p: m.unlink(p),
    }[phase]


def run_mdtest(
    cluster: Cluster,
    mount_for: Callable[[int], object],
    node_for: Callable[[int], Node],
    config: MdtestConfig,
) -> MdtestResult:
    """Drive the benchmark; returns per-phase throughput.

    ``mount_for(i)`` / ``node_for(i)`` give process *i* its filesystem
    client and its host node (processes are spread round-robin over the
    client nodes, like MPI ranks).
    """
    sim = cluster.sim
    nodes = [node_for(i) for i in range(config.n_procs)]

    # ---- scaffold: create the shared tree (not measured) ---------------
    scaffold = [] if config.single_dir else tree_dirs(config.tree)
    if config.single_dir:
        scaffold = [config.tree.root]

    def scaffold_worker(p: int, paths: Sequence[str]) -> Generator:
        m = mount_for(p)
        for path in paths:
            yield from m.mkdir(path)
        if config.drain and hasattr(m, "flush"):
            yield from m.flush()

    # Parents must exist before children: create level-by-level, spreading
    # each level's dirs over the processes.
    by_depth: Dict[int, List[str]] = {}
    for d in scaffold:
        by_depth.setdefault(d.count("/"), []).append(d)
    for depth in sorted(by_depth):
        level = by_depth[depth]
        chunks: List[List[str]] = [[] for _ in range(min(config.n_procs,
                                                         len(level)))]
        for i, d in enumerate(level):
            chunks[i % len(chunks)].append(d)
        run_phase(sim, f"scaffold-{depth}", nodes,
                  [scaffold_worker(p, chunk) for p, chunk in enumerate(chunks)],
                  0)

    dir_paths = _item_paths(config, "dir")
    file_paths = _item_paths(config, "file")
    latencies = LatencyRecorder()

    def phase_worker(phase: str, p: int) -> Generator:
        m = mount_for(p)
        op = _op_for(phase)
        paths = dir_paths[p] if phase.startswith("dir") else file_paths[p]
        for path in paths:
            t0 = sim.now
            yield from op(m, path)
            latencies.record(phase, sim.now - t0)
        if config.drain and hasattr(m, "flush"):
            yield from m.flush()

    results: Dict[str, PhaseResult] = {}
    for phase in config.phases:
        if config.barrier_slack:
            sim.run(until=sim.now + config.barrier_slack)
        workers = [phase_worker(phase, p) for p in range(config.n_procs)]
        results[phase] = run_phase(sim, phase, nodes, workers,
                                   config.items_per_proc)
    return MdtestResult(config, results, latencies)
