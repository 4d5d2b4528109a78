"""Lustre filesystem instance assembly.

``build_lustre`` provisions one MDS node and ``n_oss`` OSS nodes on the
cluster (matching the paper's dedicated Lustre server nodes) and hands out
one :class:`LustreClient` per client node (the kernel module is per-node,
shared by every process on it).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...models.params import LustreParams
from ...sim.node import Cluster, Node
from ...svc import TraceBus
from .client import LustreClient
from .mds import MetadataServer
from .oss import ObjectStorageServer


class LustreFS:
    def __init__(self, cluster: Cluster, name: str, mds_node: Node,
                 oss_nodes: List[Node], params: Optional[LustreParams] = None,
                 standby_node: Optional[Node] = None,
                 bus: Optional[TraceBus] = None):
        self.cluster = cluster
        self.name = name
        self.params = params or LustreParams()
        self.bus = bus
        self.mds_endpoint = f"{name}-mds"
        self.oss_endpoints = [f"{name}-oss{i}" for i in range(len(oss_nodes))]
        self.mds = MetadataServer(mds_node, self.mds_endpoint, self.params,
                                  len(oss_nodes), self.oss_endpoints, bus=bus)
        self.oss = [ObjectStorageServer(node, ep, self.params, bus=bus)
                    for node, ep in zip(oss_nodes, self.oss_endpoints)]
        self.standby_node = standby_node
        self._failover_count = 0
        self._clients: Dict[str, LustreClient] = {}

    def client(self, node: Node) -> LustreClient:
        """The per-node client instance (created on first use)."""
        cli = self._clients.get(node.name)
        if cli is None:
            cli = LustreClient(self, node)
            self._clients[node.name] = cli
        return cli

    def failover(self):
        """Active/standby MDS failover (paper §III-A: "a fail-over MDS
        that becomes operational if the primary becomes nonfunctional").

        The standby mounts the shared MDT (same namespace), replays the
        journal, and starts serving at its own endpoint after the takeover
        delay; clients drop their caches and reconnect. Only one MDS is
        ever operational. Returns the spawned takeover process.
        """
        if self.standby_node is None:
            raise RuntimeError(f"{self.name} has no standby MDS configured")
        old = self.mds
        old.node.crash()
        self._failover_count += 1
        new_endpoint = f"{self.name}-mds-fo{self._failover_count}"

        def takeover():
            yield self.cluster.sim.timeout(self.params.failover_takeover_delay)
            self.mds = MetadataServer(self.standby_node, new_endpoint,
                                      self.params, len(self.oss_endpoints),
                                      self.oss_endpoints, ns=old.ns,
                                      bus=self.bus)
            self.mds_endpoint = new_endpoint
            for cli in self._clients.values():
                cli.on_mds_failover(new_endpoint)

        return self.standby_node.spawn(takeover(), f"{self.name}.takeover")


def build_lustre(
    cluster: Cluster,
    name: str = "lustre",
    n_oss: int = 2,
    params: Optional[LustreParams] = None,
    with_standby: bool = False,
    bus: Optional[TraceBus] = None,
) -> LustreFS:
    params = params or LustreParams()
    mds_node = cluster.add_node(f"{name}-mdsnode", cores=params.mds_cores)
    oss_nodes = [cluster.add_node(f"{name}-ossnode{i}", cores=params.oss_cores)
                 for i in range(n_oss)]
    standby = cluster.add_node(f"{name}-mds-standby", cores=params.mds_cores) \
        if with_standby else None
    return LustreFS(cluster, name, mds_node, oss_nodes, params,
                    standby_node=standby, bus=bus)
