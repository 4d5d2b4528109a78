"""CMD filesystem assembly: N metadata servers + the global lock server."""

from __future__ import annotations

from typing import Dict, List, Optional

from ...models.params import LustreParams
from ...sim.node import Cluster, Node
from ...svc import TraceBus
from .client import CMDClient
from .server import CMDServer, GlobalLockServer


class CMDFS:
    def __init__(self, cluster: Cluster, name: str, server_nodes: List[Node],
                 lock_node: Node, params: Optional[LustreParams] = None,
                 bus: Optional[TraceBus] = None):
        self.cluster = cluster
        self.name = name
        self.params = params or LustreParams()
        self.bus = bus
        self.server_endpoints = [f"{name}-mds{i}"
                                 for i in range(len(server_nodes))]
        self.servers = [CMDServer(node, ep, i, len(server_nodes), self.params,
                                  bus=bus)
                        for i, (node, ep) in
                        enumerate(zip(server_nodes, self.server_endpoints))]
        self.lock_endpoint = f"{name}-glock"
        self.lock_server = GlobalLockServer(lock_node, self.lock_endpoint,
                                            self.params, bus=bus)
        self._clients: Dict[str, CMDClient] = {}

    def client(self, node: Node) -> CMDClient:
        cli = self._clients.get(node.name)
        if cli is None:
            cli = CMDClient(self, node)
            self._clients[node.name] = cli
        return cli


def build_cmd(
    cluster: Cluster,
    name: str = "cmd",
    n_mds: int = 2,
    params: Optional[LustreParams] = None,
    bus: Optional[TraceBus] = None,
) -> CMDFS:
    """N active MDSes plus the (master) global-lock node — the paper notes
    CMD still depends on a central node for coordination."""
    params = params or LustreParams()
    nodes = [cluster.add_node(f"{name}-mdsnode{i}", cores=params.mds_cores)
             for i in range(n_mds)]
    lock_node = cluster.add_node(f"{name}-master", cores=params.mds_cores)
    return CMDFS(cluster, name, nodes, lock_node, params, bus=bus)
