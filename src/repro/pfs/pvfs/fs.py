"""PVFS2 filesystem instance assembly."""

from __future__ import annotations

from typing import Dict, List, Optional

from ...models.params import PVFSParams
from ...sim.node import Cluster, Node
from ...svc import TraceBus
from .client import PVFSClient
from .server import DIR_T, PVFSServer, _Obj


class PVFSFS:
    def __init__(self, cluster: Cluster, name: str, server_nodes: List[Node],
                 params: Optional[PVFSParams] = None,
                 bus: Optional[TraceBus] = None):
        self.cluster = cluster
        self.name = name
        self.params = params or PVFSParams()
        self.bus = bus
        self.server_endpoints = [f"{name}-srv{i}"
                                 for i in range(len(server_nodes))]
        self.servers = [PVFSServer(node, ep, i, self.params, bus=bus)
                        for i, (node, ep) in
                        enumerate(zip(server_nodes, self.server_endpoints))]
        # Root directory lives on server 0.
        root = _Obj(self.servers[0].alloc_handle(), DIR_T, 0.0, 0o755)
        self.servers[0].objects[root.handle] = root
        self.root_handle = root.handle
        self._clients: Dict[str, PVFSClient] = {}

    def client(self, node: Node) -> PVFSClient:
        cli = self._clients.get(node.name)
        if cli is None:
            cli = PVFSClient(self, node)
            self._clients[node.name] = cli
        return cli


def build_pvfs(
    cluster: Cluster,
    name: str = "pvfs",
    n_servers: Optional[int] = None,
    params: Optional[PVFSParams] = None,
    bus: Optional[TraceBus] = None,
) -> PVFSFS:
    params = params or PVFSParams()
    n = n_servers if n_servers is not None else params.n_servers
    nodes = [cluster.add_node(f"{name}-srvnode{i}") for i in range(n)]
    return PVFSFS(cluster, name, nodes, params, bus=bus)
