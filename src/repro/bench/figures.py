"""Figure runners: one function per table/figure in the paper.

Each runner sweeps the same axes as the published figure and returns a
:class:`FigureResult` whose series can be rendered by
:mod:`repro.bench.report` or compared against :mod:`repro.bench.paper_data`.

``scale`` presets keep pure-Python event counts tractable:

- ``"quick"`` — reduced process counts / ops per process (seconds; used by
  the pytest benchmarks),
- ``"full"``  — the paper's axes (64/128/256 processes; minutes).

Throughput is steady-state, so the reduced scales preserve curve shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.fs import build_dufs_deployment
from ..core.metadata import DirPayload
from ..models.memory import MemoryModel
from ..models.params import SimParams
from ..pfs.lustre.fs import build_lustre
from ..pfs.pvfs.fs import build_pvfs
from ..sim.node import Cluster
from ..workloads.mdtest import (ALL_PHASES, DIR_PHASES, FILE_PHASES,
                                MdtestConfig, run_mdtest)
from ..workloads.treegen import TreeSpec
from ..workloads.zkraw import ZK_PHASES, ZKRawConfig, run_zk_raw

Series = Dict[str, List[Tuple[float, float]]]


@dataclass
class FigureResult:
    figure: str
    title: str
    xlabel: str
    series: Series = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    def add(self, name: str, x: float, y: float) -> None:
        self.series.setdefault(name, []).append((x, y))

    def at(self, name: str, x: float) -> Optional[float]:
        for px, py in self.series.get(name, ()):
            if px == x:
                return py
        return None


SCALES = {
    # (proc counts, mdtest items/proc, zkraw ops/proc)
    "tiny": ((8,), 4, 5),          # unit-test smoke only
    "quick": ((16, 64), 10, 12),
    "medium": ((64, 256), 14, 18),
    "full": ((64, 128, 256), 20, 22),
}


def _procs(scale: str) -> Sequence[int]:
    return SCALES[scale][0]


def _items(scale: str) -> int:
    return SCALES[scale][1]


def _zk_ops(scale: str) -> int:
    return SCALES[scale][2]


def _tree() -> TreeSpec:
    return TreeSpec(fanout=10, depth=2)


# ---------------------------------------------------------------------------
# Fig. 7 — raw ZooKeeper throughput
# ---------------------------------------------------------------------------

def run_fig7(scale: str = "quick",
             ensembles: Sequence[int] = (1, 4, 8)) -> FigureResult:
    """zoo_create / zoo_delete / zoo_set / zoo_get vs #client processes,
    for 1/4/8 ZooKeeper servers (paper Fig. 7 a-d)."""
    t0 = time.time()
    fig = FigureResult("fig7", "ZooKeeper throughput for basic operations",
                       "client processes")
    for n_servers in ensembles:
        for procs in _procs(scale):
            cfg = ZKRawConfig(n_servers=n_servers, n_procs=procs,
                              ops_per_proc=_zk_ops(scale))
            res = run_zk_raw(cfg)
            for phase in ZK_PHASES:
                fig.add(f"{phase}/zk{n_servers}", procs,
                        res.throughput(phase))
    fig.wall_seconds = time.time() - t0
    fig.notes.append("writes slow down with ensemble size (quorum "
                     "replication); reads scale out linearly")
    return fig


# ---------------------------------------------------------------------------
# mdtest runners for Figs. 8-10
# ---------------------------------------------------------------------------

def _run_basic(kind: str, procs: int, items: int,
               params: Optional[SimParams] = None,
               phases=ALL_PHASES, single_dir: bool = False, n_mds: int = 2):
    """mdtest against one basic filesystem (``lustre``, ``pvfs`` or the
    ``cmd`` foil with ``n_mds`` active MDSes) mounted from 8 client
    nodes; returns ``(result, filesystem)`` so callers can read the
    servers' own counters."""
    params = params or SimParams()
    cluster = Cluster()
    nodes = [cluster.add_node(f"client{i}", cores=params.node_cores)
             for i in range(8)]
    if kind == "lustre":
        fs = build_lustre(cluster, "lustre", params=params.lustre)
    elif kind == "pvfs":
        fs = build_pvfs(cluster, "pvfs", params=params.pvfs)
    else:
        from ..pfs.cmd.fs import build_cmd
        fs = build_cmd(cluster, "cmd", n_mds=n_mds, params=params.lustre)
    cfg = MdtestConfig(n_procs=procs, items_per_proc=items, tree=_tree(),
                       phases=phases, single_dir=single_dir)
    return run_mdtest(cluster, lambda i: fs.client(nodes[i % 8]),
                      lambda i: nodes[i % 8], cfg), fs


def _run_dufs(backend: str, procs: int, items: int,
              n_zk: int = 8, n_backends: int = 2,
              phases=ALL_PHASES, single_dir: bool = False):
    dep = build_dufs_deployment(
        n_zk=n_zk, n_backends=n_backends, n_client_nodes=8, backend=backend,
        pvfs_servers_per_instance=4)
    cfg = MdtestConfig(n_procs=procs, items_per_proc=items, tree=_tree(),
                       phases=phases, single_dir=single_dir)
    return run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)


def run_fig8(scale: str = "quick",
             ensembles: Sequence[int] = (1, 4, 8)) -> FigureResult:
    """Six mdtest op throughputs for DUFS (2 Lustre back-ends) with 1/4/8
    ZooKeeper servers, vs Basic Lustre (paper Fig. 8 a-f)."""
    t0 = time.time()
    fig = FigureResult("fig8", "Operation throughput vs number of "
                       "ZooKeeper servers (2 Lustre back-ends)",
                       "client processes")
    items = _items(scale)
    for procs in _procs(scale):
        res, _ = _run_basic("lustre", procs, items)
        for phase in ALL_PHASES:
            fig.add(f"{phase}/lustre", procs, res.throughput(phase))
        for n_zk in ensembles:
            res = _run_dufs("lustre", procs, items, n_zk=n_zk)
            for phase in ALL_PHASES:
                fig.add(f"{phase}/zk{n_zk}", procs, res.throughput(phase))
    fig.wall_seconds = time.time() - t0
    fig.notes.append("read-mostly ops (stat) gain most from more ZK "
                     "servers; 8 servers is the paper's chosen tradeoff")
    return fig


def run_fig9(scale: str = "quick",
             backend_counts: Sequence[int] = (2, 4)) -> FigureResult:
    """File create/remove/stat for DUFS with 2 vs 4 Lustre back-ends,
    vs Basic Lustre (paper Fig. 9 a-c)."""
    t0 = time.time()
    fig = FigureResult("fig9", "File operation throughput vs number of "
                       "back-end storages (8 ZooKeeper servers)",
                       "client processes")
    items = _items(scale)
    for procs in _procs(scale):
        res, _ = _run_basic("lustre", procs, items,
                            phases=FILE_PHASES)
        for phase in FILE_PHASES:
            fig.add(f"{phase}/lustre", procs, res.throughput(phase))
        for n_b in backend_counts:
            res = _run_dufs("lustre", procs, items, n_backends=n_b,
                            phases=FILE_PHASES)
            for phase in FILE_PHASES:
                fig.add(f"{phase}/backends{n_b}", procs,
                        res.throughput(phase))
    fig.wall_seconds = time.time() - t0
    fig.notes.append("file stat gains most from extra back-ends (pure "
                     "reads); create/remove stay ZK-write-bound")
    return fig


def run_fig10(scale: str = "quick") -> FigureResult:
    """Basic Lustre, DUFS(2 Lustre), Basic PVFS, DUFS(2 PVFS): the six
    mdtest ops vs client processes (paper Fig. 10 a-f)."""
    t0 = time.time()
    fig = FigureResult("fig10", "Operation throughput: DUFS vs native "
                       "Lustre and PVFS2", "client processes")
    items = _items(scale)
    for procs in _procs(scale):
        for name, runner in (
            ("lustre", lambda: _run_basic("lustre", procs, items)[0]),
            ("dufs-lustre", lambda: _run_dufs("lustre", procs, items)),
            ("pvfs", lambda: _run_basic("pvfs", procs, items)[0]),
            ("dufs-pvfs", lambda: _run_dufs("pvfs", procs, items)),
        ):
            res = runner()
            for phase in ALL_PHASES:
                fig.add(f"{phase}/{name}", procs, res.throughput(phase))
    fig.wall_seconds = time.time() - t0
    fig.notes.append("directory ops under DUFS are identical for both "
                     "back-ends (ZooKeeper-only, paper §V-D)")
    return fig


def run_single_dir(scale: str = "quick") -> FigureResult:
    """The paper's side experiment (§V): "many files created in a single
    directory". All processes hammer ONE shared directory; Lustre pays
    parent-lock serialization + growing-dirent costs, DUFS pays only one
    hot znode whose child list grows."""
    t0 = time.time()
    fig = FigureResult("singledir", "All processes create files in one "
                       "shared directory", "client processes")
    items = _items(scale)
    for procs in _procs(scale):
        runs = {"lustre": _run_basic("lustre", procs, items,
                                     phases=FILE_PHASES, single_dir=True)[0],
                "dufs-lustre": _run_dufs("lustre", procs, items,
                                         phases=FILE_PHASES, single_dir=True)}
        for name, res in runs.items():
            for phase in FILE_PHASES:
                fig.add(f"{phase}/{name}", procs, res.throughput(phase))
    fig.wall_seconds = time.time() - t0
    fig.notes.append("single shared directory: the worst case for "
                     "directory-lock based designs")
    return fig


def run_cmd_comparison(scale: str = "quick") -> FigureResult:
    """DUFS vs Lustre CMD (Clustered Metadata), the design the paper argues
    against (§II/§VI): CMD gets multiple active MDSes, but cross-MDS
    mutations serialize on a global lock and renames always do."""
    t0 = time.time()
    fig = FigureResult("cmd", "DUFS vs Lustre CMD (clustered metadata)",
                       "client processes")
    items = _items(scale)
    for procs in _procs(scale):
        # CMD with 2 and 4 active MDSes.
        for n_mds in (2, 4):
            res, fs = _run_basic("cmd", procs, items,
                                 phases=DIR_PHASES, n_mds=n_mds)
            for phase in DIR_PHASES:
                fig.add(f"{phase}/cmd{n_mds}", procs, res.throughput(phase))
            fig.add(f"global_locks/cmd{n_mds}", procs,
                    float(fs.lock_server.stats["acquisitions"]))
        # DUFS (8 ZK, 2 Lustre backends) and basic Lustre for reference.
        res = _run_dufs("lustre", procs, items, phases=DIR_PHASES)
        for phase in DIR_PHASES:
            fig.add(f"{phase}/dufs", procs, res.throughput(phase))
        res, _ = _run_basic("lustre", procs, items, phases=DIR_PHASES)
        for phase in DIR_PHASES:
            fig.add(f"{phase}/lustre", procs, res.throughput(phase))
    fig.wall_seconds = time.time() - t0
    fig.notes.append("CMD's cross-MDS mutations serialize on the global "
                     "lock; the paper's consistency critique, quantified")
    return fig


# ---------------------------------------------------------------------------
# Fig. 11 — memory usage
# ---------------------------------------------------------------------------

def run_fig11(scale: str = "quick",
              points_millions: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5),
              calibrate_n: int = 20000) -> FigureResult:
    """ZooKeeper / DUFS / dummy-FUSE resident memory vs millions of
    directories created (paper Fig. 11).

    The byte-accounting model is cross-checked by actually creating
    ``calibrate_n`` znodes in a :class:`ZnodeStore` and comparing its
    tracked bytes with the model's slope.
    """
    t0 = time.time()
    from ..zk.data import ZnodeStore

    fig = FigureResult("fig11", "Memory usage vs millions of directories",
                       "millions of directories")
    model = MemoryModel()

    # Cross-check: real store, mdtest-shaped paths, model-tracked bytes.
    store = ZnodeStore()
    created = 0
    level: List[str] = [""]
    depth_counter = 0
    payload = DirPayload().encode().ljust(model.avg_data_len, b" ")
    while created < calibrate_n:
        nxt = []
        depth_counter += 1
        for parent in level:
            for i in range(10):
                path = f"{parent}/d{depth_counter}.{i:04d}"
                if len(path) < model.avg_path_len - 8:
                    nxt.append(path)
                store.apply_create(path, payload, created + 1, 0.0)
                created += 1
                if created >= calibrate_n:
                    break
            if created >= calibrate_n:
                break
        level = nxt or level
    measured_slope = store.approx_memory_bytes / len(store)
    fig.notes.append(
        f"calibration: {created} real znodes -> "
        f"{measured_slope:.0f} B/znode tracked vs model "
        f"{model.bytes_per_znode:.0f} B/znode")

    for millions in points_millions:
        n = int(millions * 1e6)
        fig.add("zookeeper", millions, model.zookeeper_mb(n))
        fig.add("dufs", millions, model.dufs_client_mb(n))
        fig.add("dummy-fuse", millions, model.dummy_fuse_mb(n))
    fig.wall_seconds = time.time() - t0
    return fig


# ---------------------------------------------------------------------------
# Headline claims (§V-D / abstract)
# ---------------------------------------------------------------------------

def run_headline_claims(scale: str = "medium") -> Dict[str, float]:
    """Measure the paper's four stated speedups at the largest proc count."""
    fig = run_fig10(scale=scale)
    procs = max(x for x, _ in next(iter(fig.series.values())))

    def v(series: str) -> float:
        val = fig.at(series, procs)
        assert val is not None, series
        return val

    return {
        "procs": procs,
        "dir_create_speedup_vs_lustre": v("dir_create/dufs-lustre")
        / v("dir_create/lustre"),
        "dir_create_speedup_vs_pvfs": v("dir_create/dufs-lustre")
        / v("dir_create/pvfs"),
        "file_stat_speedup_vs_lustre": v("file_stat/dufs-lustre")
        / v("file_stat/lustre"),
        "file_stat_speedup_vs_pvfs": v("file_stat/dufs-lustre")
        / v("file_stat/pvfs"),
    }


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

def run_ablations(scale: str = "quick") -> FigureResult:
    """Ablate the design choices: ZK ensemble size for writes, Lustre DLM
    callbacks, DUFS physical layout, ZK co-location, mapping strategy."""
    t0 = time.time()
    fig = FigureResult("ablations", "Design-choice ablations",
                       "client processes")
    items = _items(scale)
    procs = max(_procs(scale))

    # 1. Lustre DLM on/off. Throughput moves little (revocation *waits*
    # don't occupy the MDS CPU) — the observable cost is the callback and
    # re-lookup traffic, which we record alongside.
    for dlm in (True, False):
        params = SimParams()
        params.lustre.dlm_enabled = dlm
        res, fs = _run_basic("lustre", procs, items, params=params,
                             phases=("dir_create", "dir_stat"))
        tag = "on" if dlm else "off"
        fig.add(f"lustre_dir_create/dlm={tag}", procs,
                res.throughput("dir_create"))
        fig.add(f"lustre_revocations/dlm={tag}", procs,
                float(fs.mds.dlm.stats["revokes"]))
        fig.add(f"lustre_lookup_rpcs/dlm={tag}", procs,
                float(sum(c.stats["lookups"]
                          for c in fs._clients.values())))

    # 2. DUFS physical layout: paper-verbatim vs amortized chains.
    for layout in ("amortized", "paper"):
        dep = build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=8,
                                    backend="lustre")
        for c in dep.clients:
            c.files.layout = layout
        cfg = MdtestConfig(n_procs=procs, items_per_proc=items, tree=_tree(),
                           phases=("file_create", "file_stat"))
        res = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
        fig.add(f"dufs_file_create/layout={layout}", procs,
                res.throughput("file_create"))
        fig.add(f"dufs_file_stat/layout={layout}", procs,
                res.throughput("file_stat"))

    # 3. ZK co-location vs dedicated nodes.
    for co in (True, False):
        dep = build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=8,
                                    backend="lustre", co_locate_zk=co)
        cfg = MdtestConfig(n_procs=procs, items_per_proc=items, tree=_tree(),
                           phases=("dir_create", "dir_stat"))
        res = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
        fig.add(f"dufs_dir_stat/colocated={co}", procs,
                res.throughput("dir_stat"))

    # 4. ZK write cost vs ensemble size (isolates the quorum overhead).
    for n_servers in (1, 4, 8):
        res = run_zk_raw(ZKRawConfig(n_servers=n_servers, n_procs=procs,
                                     ops_per_proc=_zk_ops(scale)))
        fig.add(f"zoo_create/zk{n_servers}", procs,
                res.throughput("zoo_create"))

    # 5. Observers (beyond the paper): same machine count as 8 voters,
    # but only 3 vote — reads stay fanned out, writes speed up.
    from ..workloads.driver import run_phase
    from ..zk.client import ZKClient
    from ..zk.ensemble import build_ensemble
    for label, voters, observers in (("8voters", 8, 0),
                                     ("3voters+5obs", 3, 5)):
        cluster = Cluster()
        nodes = [cluster.add_node(f"client{i}") for i in range(8)]
        ens = build_ensemble(cluster, nodes, voters, n_observers=observers)
        cluster.sim.run(until=0.5)
        clients = [ZKClient(nodes[i % 8], ens.endpoints,
                            prefer=ens.endpoints[i % len(ens.endpoints)],
                            name=f"abl-{label}-{i}")
                   for i in range(procs)]

        def worker(phase, p, clients=clients):
            cli = clients[p]
            for i in range(_zk_ops(scale)):
                if phase == "create":
                    yield from cli.create(f"/obs-{p}-{i}", b"x")
                else:
                    yield from cli.get(f"/obs-{p}-{i}")

        nodes_for = [nodes[i % 8] for i in range(procs)]
        w = run_phase(cluster.sim, "create", nodes_for,
                      [worker("create", p) for p in range(procs)],
                      _zk_ops(scale))
        r = run_phase(cluster.sim, "get", nodes_for,
                      [worker("get", p) for p in range(procs)],
                      _zk_ops(scale))
        fig.add(f"zk_write/{label}", procs, w.throughput)
        fig.add(f"zk_read/{label}", procs, r.throughput)

    fig.wall_seconds = time.time() - t0
    return fig
