"""Raw ZooKeeper throughput workload (paper Fig. 7).

Measures zoo_create / zoo_set / zoo_get / zoo_delete rates through the
synchronous client API, with a configurable number of client processes
spread over the client nodes and one ZK connection per process, exactly as
§V-A describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from ..models.params import ZKParams
from ..sim.node import Cluster
from ..zk.client import ZKClient
from ..zk.ensemble import build_ensemble
from .driver import PhaseResult, run_phase

ZK_PHASES = ("zoo_create", "zoo_set", "zoo_get", "zoo_delete")


@dataclass
class ZKRawConfig:
    n_servers: int = 8
    n_client_nodes: int = 8
    n_procs: int = 64
    ops_per_proc: int = 25


@dataclass
class ZKRawResult:
    config: ZKRawConfig
    phases: Dict[str, PhaseResult]

    def throughput(self, phase: str) -> float:
        return self.phases[phase].throughput


def run_zk_raw(config: ZKRawConfig,
               params: ZKParams | None = None) -> ZKRawResult:
    """Build a fresh co-located ensemble and run the four phases."""
    cluster = Cluster()
    nodes = [cluster.add_node(f"client{i}")
             for i in range(config.n_client_nodes)]
    ensemble = build_ensemble(cluster, nodes, config.n_servers,
                              params=params or ZKParams())
    sim = cluster.sim

    proc_nodes = [nodes[i % len(nodes)] for i in range(config.n_procs)]
    clients: List[ZKClient] = []
    for i in range(config.n_procs):
        # Prefer the co-located server when one lives on this node.
        node_idx = i % len(nodes)
        prefer = (ensemble.endpoints[node_idx]
                  if node_idx < config.n_servers
                  else ensemble.server_for(i))
        clients.append(ZKClient(proc_nodes[i], ensemble.endpoints,
                                prefer=prefer, name=f"raw{i}"))

    def paths(p: int) -> List[str]:
        return [f"/bench-{p}-{i}" for i in range(config.ops_per_proc)]

    def worker(phase: str, p: int) -> Generator:
        cli = clients[p]
        for path in paths(p):
            if phase == "zoo_create":
                yield from cli.create(path, b"x" * 32)
            elif phase == "zoo_set":
                yield from cli.set_data(path, b"y" * 32)
            elif phase == "zoo_get":
                yield from cli.get(path)
            elif phase == "zoo_delete":
                yield from cli.delete(path)

    results: Dict[str, PhaseResult] = {}
    for phase in ZK_PHASES:
        workers = [worker(phase, p) for p in range(config.n_procs)]
        results[phase] = run_phase(sim, phase, proc_nodes, workers,
                                   config.ops_per_proc)
    return ZKRawResult(config, results)
