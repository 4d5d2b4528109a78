"""Ensemble assembly: place N ZooKeeper servers on simulated nodes.

The paper co-locates ZooKeeper servers with the DUFS client nodes
(section V: "ZooKeeper server runs along with the DUFS clients"); the
builder supports both co-located and dedicated placements — the ablation
benchmark compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..models.params import ZKParams
from ..sim.node import Cluster, Node
from ..svc import TraceBus
from .server import ZKServer


@dataclass
class ZKEnsemble:
    """Handle to a built ensemble."""

    servers: List[ZKServer]
    endpoints: List[str]

    @property
    def leader(self) -> Optional[ZKServer]:
        for s in self.servers:
            if s.role == "leading":
                return s
        return None

    def server_for(self, index: int) -> str:
        """Endpoint assignment for the ``index``-th client (round-robin).

        Round-robins over *live* endpoints only: after a permanent crash
        removes a server, indexing the full endpoint list would hand out
        dead addresses forever. Falls back to the full list when nothing
        is live (the client's own fail-over loop then takes over).
        """
        live = [ep for s, ep in zip(self.servers, self.endpoints)
                if not s.node.down]
        pool = live or self.endpoints
        return pool[index % len(pool)]

    def fingerprints(self) -> List[int]:
        return [s.store.fingerprint() for s in self.servers]

    def converged(self) -> bool:
        """All replicas hold identical committed trees."""
        fps = self.fingerprints()
        return all(fp == fps[0] for fp in fps)


def build_ensemble(
    cluster: Cluster,
    nodes: Sequence[Node],
    n_servers: int,
    params: Optional[ZKParams] = None,
    static_leader: Optional[int] = 0,
    boot: bool = True,
    n_observers: int = 0,
    bus: Optional[TraceBus] = None,
    name: str = "zk",
    shard: int = 0,
) -> ZKEnsemble:
    """Create ``n_servers`` voting ZK servers (plus ``n_observers``
    non-voting observers) spread round-robin over ``nodes``.

    With ``boot=True`` and a ``static_leader``, roles are assigned without
    an election (healthy-cluster benchmarks). Pass ``static_leader=None``
    (and params with ``failure_detection=True``) to start all servers
    LOOKING and let the election run. Observers replicate committed state
    and serve reads but never vote or ack — read fan-out at no write cost.

    ``name`` prefixes server endpoints (default ``"zk"`` keeps them
    identical to before); distinct names let several independent
    ensembles — the sharded metadata plane — share one cluster.
    """
    params = params or ZKParams()
    total = n_servers + n_observers
    peers = {sid: f"{name}{sid}" for sid in range(total)}
    servers = []
    for sid in range(total):
        node = nodes[sid % len(nodes)]
        server = ZKServer(node, sid, peers, params=params,
                          static_leader=static_leader,
                          observer=sid >= n_servers,
                          voter_count=n_servers, bus=bus)
        server.svc.shard = shard      # tag this ensemble's traces
        servers.append(server)
    if boot and static_leader is not None:
        for server in servers:
            server.boot_static()
    elif boot:
        for server in servers:
            if not server.observer:
                server.start_election()
    return ZKEnsemble(servers, [peers[s] for s in range(total)])
