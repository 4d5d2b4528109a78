"""GIGA+ core: extensible hashing with incremental partition splits.

Addressing follows the GIGA+ radix scheme. A filename hashes to a bit
string ``b0 b1 b2 …``. Partitions form a binary split tree over those
bits: partition *P* at depth *d* holds every name whose first *d* hash
bits match P's id (little-endian: ``id = Σ b_k << k`` for ``k < d``).
Splitting P at depth d creates child ``P | (1 << d)`` and moves the names
with ``b_d == 1`` there; the child lands on the next server round-robin.

Clients address from a *stale* bitmap copy and learn about splits lazily
when a server bounces a wrongly-addressed request — GIGA+'s defining
"no synchronization" property. The flip side the paper calls out — no
replication, so a dead server makes its partitions unreachable — is
modeled faithfully and measured by the bench.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Dict, Generator, List, Optional, Set

from ...errors import EEXIST, EIO, ENOENT, FSError
from ...models.params import PVFSParams
from ...sim.node import Cluster, Node
from ...sim.rpc import Reply, RpcAgent
from ...svc import Service

_client_seq = itertools.count()

MAX_DEPTH = 24


def hash_bits(name: str) -> int:
    """Stable 32-bit hash; bit k of the result is split bit b_k."""
    return zlib.crc32(name.encode()) & 0xFFFFFFFF


def bit(h: int, k: int) -> int:
    return (h >> k) & 1


def prefix_id(h: int, depth: int) -> int:
    """The partition id a hash belongs to at a given depth."""
    return h & ((1 << depth) - 1)


def partition_for(h: int, bitmap: Set[int]) -> int:
    """Walk the split tree as deep as the (possibly stale) bitmap knows."""
    pid, depth = 0, 0
    while depth < MAX_DEPTH:
        child = pid | (1 << depth)
        if child not in bitmap:
            break
        if bit(h, depth):
            pid = child
        depth += 1
    return pid


class GigaServer:
    def __init__(self, node: Node, endpoint: str, index: int,
                 params: PVFSParams, split_threshold: int):
        self.node = node
        self.sim = node.sim
        self.endpoint = endpoint
        self.index = index
        self.params = params
        self.split_threshold = split_threshold
        self.partitions: Dict[int, Dict[str, int]] = {}   # pid -> name -> h
        self.partition_depth: Dict[int, int] = {}
        self.service: Optional["GigaDirectory"] = None
        self.svc = s = Service(node, endpoint, deployment="giga")
        s.expose("insert", self._h_insert)
        s.expose("lookup", self._h_lookup)
        s.expose("remove", self._h_remove)
        s.expose("list_partition", self._h_list_partition)

    def _check(self, pid: int, h: int) -> None:
        """Reject requests addressed with a stale bitmap."""
        depth = self.partition_depth.get(pid)
        if depth is None or prefix_id(h, depth) != pid:
            raise FSError(EIO, msg=f"wrong partition {pid:#x}")

    def _h_insert(self, src: str, args) -> Generator:
        pid, name, h = args
        yield from self.node.cpu_work(self.params.crdirent_cpu)
        self._check(pid, h)
        table = self.partitions[pid]
        if name in table:
            raise FSError(EEXIST, name)
        table[name] = h
        if len(table) > self.split_threshold and \
                self.partition_depth[pid] < MAX_DEPTH and \
                self.service is not None:
            yield from self.service.split(self, pid)
        return True

    def _h_lookup(self, src: str, args) -> Generator:
        pid, name, h = args
        yield from self.node.cpu_work(self.params.lookup_cpu)
        self._check(pid, h)
        if name not in self.partitions[pid]:
            raise FSError(ENOENT, name)
        return True

    def _h_remove(self, src: str, args) -> Generator:
        pid, name, h = args
        yield from self.node.cpu_work(self.params.crdirent_cpu)
        self._check(pid, h)
        table = self.partitions[pid]
        if name not in table:
            raise FSError(ENOENT, name)
        del table[name]
        return True

    def _h_list_partition(self, src: str, pid: int) -> Generator:
        yield from self.node.cpu_work(self.params.readdir_cpu_base)
        table = self.partitions.get(pid)
        if table is None:
            raise FSError(ENOENT, msg=f"partition {pid:#x}")
        return Reply(sorted(table), size=96 + 16 * len(table))


class GigaDirectory:
    """One huge GIGA+ directory spread over N servers."""

    def __init__(self, cluster: Cluster, name: str, server_nodes: List[Node],
                 params: Optional[PVFSParams] = None,
                 split_threshold: int = 200):
        self.cluster = cluster
        self.name = name
        self.params = params or PVFSParams()
        self.split_threshold = split_threshold
        self.server_endpoints = [f"{name}-g{i}"
                                 for i in range(len(server_nodes))]
        self.servers = [GigaServer(node, ep, i, self.params, split_threshold)
                        for i, (node, ep) in
                        enumerate(zip(server_nodes, self.server_endpoints))]
        for s in self.servers:
            s.service = self
        # Authoritative split bitmap. Unreplicated, per GIGA+: clients hold
        # stale copies and refresh only after addressing errors.
        self.bitmap: Set[int] = set()
        self.partition_owner: Dict[int, int] = {0: 0}
        self.servers[0].partitions[0] = {}
        self.servers[0].partition_depth[0] = 0
        self._next_server = 1
        self._splitting: Set[int] = set()

    def split(self, server: GigaServer, pid: int) -> Generator:
        """Move the b_d == 1 half of partition pid to a new partition on
        the next server; involves only the two servers (no global lock).

        Concurrent inserts keep landing in the parent while the split's
        CPU work is underway; the migration snapshot is taken *after* it,
        atomically with the bitmap/depth updates, so nothing is stranded.
        """
        depth = server.partition_depth[pid]
        child = pid | (1 << depth)
        if child in self.bitmap or child in self._splitting or \
                depth >= MAX_DEPTH:
            return
        self._splitting.add(child)
        try:
            target = self.servers[self._next_server % len(self.servers)]
            self._next_server += 1
            # Migration cost: proportional to roughly half the partition.
            yield from server.node.cpu_work(
                self.params.crdirent_cpu
                * max(1, self.split_threshold // 16))
            # ---- atomic section (no yields) -----------------------------
            table = server.partitions[pid]
            moved = {n: h for n, h in table.items() if bit(h, depth)}
            for n in moved:
                del table[n]
            target.partitions[child] = moved
            target.partition_depth[child] = depth + 1
            server.partition_depth[pid] = depth + 1
            self.partition_owner[child] = target.index
            self.bitmap.add(child)
        finally:
            self._splitting.discard(child)

    def client(self, node: Node) -> "GigaClient":
        return GigaClient(self, node)

    def partitions_per_server(self) -> List[int]:
        return [len(s.partitions) for s in self.servers]


class GigaClient:
    """Addresses partitions from a stale bitmap; refreshes on bounces."""

    def __init__(self, service: GigaDirectory, node: Node):
        self.service = service
        self.node = node
        self.agent = RpcAgent(
            node, f"{service.name}-gcli-{node.name}-{next(_client_seq)}")
        self.bitmap: Set[int] = set()       # stale copy
        self.rpc_timeout: Optional[float] = None

    def _op(self, method: str, name: str) -> Generator:
        h = hash_bits(name)
        for _ in range(MAX_DEPTH + 1):
            pid = partition_for(h, self.bitmap)
            owner = self.service.partition_owner.get(pid, 0)
            ep = self.service.server_endpoints[owner]
            try:
                result = yield from self.agent.call(
                    ep, method, (pid, name, h), size=128 + len(name),
                    timeout=self.rpc_timeout)
                return result
            except FSError as exc:
                if exc.err != EIO:
                    raise
                self.bitmap = set(self.service.bitmap)
        raise FSError(EIO, name, "bitmap never converged")

    def insert(self, name: str) -> Generator:
        return (yield from self._op("insert", name))

    def lookup(self, name: str) -> Generator:
        return (yield from self._op("lookup", name))

    def remove(self, name: str) -> Generator:
        return (yield from self._op("remove", name))


def build_giga(cluster: Cluster, name: str = "giga", n_servers: int = 4,
               params: Optional[PVFSParams] = None,
               split_threshold: int = 200) -> GigaDirectory:
    nodes = [cluster.add_node(f"{name}-node{i}") for i in range(n_servers)]
    return GigaDirectory(cluster, name, nodes, params, split_threshold)
