"""DUFS deployment assembly.

Reproduces the paper's testbed topology (§V): a set of client nodes, each
running the FUSE-mounted DUFS client, with the ZooKeeper servers
*co-located on the client nodes* ("ZooKeeper server runs along with the
DUFS clients"), and N independent back-end parallel filesystems on
dedicated server nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence

from ..fuse.mount import FuseMount
from ..fuse.ops import OperationTable
from ..mds import (Autoscaler, Migrator, ShardMap, ShardMapRegistry,
                   ShardedMDS, make_route_guard)
from ..models.params import (AsyncParams, CacheParams, FaultToleranceParams,
                             ResolveParams, SimParams)
from ..pfs.localfs import LocalFS
from ..pfs.lustre.fs import build_lustre
from ..pfs.pvfs.fs import build_pvfs
from ..sim.node import Cluster, Node
from ..svc import TraceBus, instrument_client
from ..zk.client import ZKClient
from ..zk.ensemble import ZKEnsemble, build_ensemble
from .client import DUFSClient
from .mapping import MappingFunction

#: DUFS client entry points published on the deployment's trace bus (the
#: VFS-facing surface, matching what mdtest exercises through FUSE).
TRACED_CLIENT_OPS = ("mkdir", "rmdir", "readdir", "stat", "create", "unlink",
                     "rename", "chmod", "symlink", "readlink", "statfs")


@dataclass
class DUFSDeployment:
    """A fully wired simulated DUFS installation."""

    cluster: Cluster
    params: SimParams
    client_nodes: List[Node]
    ensemble: ZKEnsemble
    backends: List[Any]                 # LustreFS | PVFSFS | LocalFS
    clients: List[DUFSClient]           # one per client node
    mounts: List[FuseMount]             # FUSE wrapper per client node
    zk_clients: List[ZKClient]
    bus: Optional[TraceBus] = None      # unified per-op trace bus
    # Sharded metadata plane (tentpole): every independent ensemble, in
    # shard order. ``ensemble`` stays bound to shard 0 for compatibility.
    ensembles: Optional[List[ZKEnsemble]] = None
    n_shards: int = 1
    # Elastic metadata plane (all None unless ``params.elastic`` is
    # enabled): the epoch-versioned map registry, the live-migration
    # executor, and the load-driven control loop.
    registry: Optional[Any] = None      # ShardMapRegistry
    migrator: Optional[Any] = None      # Migrator
    autoscaler: Optional[Any] = None    # Autoscaler

    def __post_init__(self):
        if self.ensembles is None:
            self.ensembles = [self.ensemble]

    @property
    def services(self):
        """The per-client metadata services (``MetadataService``)."""
        return [c.zk for c in self.clients]

    def mount_for(self, process_index: int) -> FuseMount:
        """The FUSE mount a given client process uses (processes are
        spread round-robin over the client nodes, as mdtest ranks are)."""
        return self.mounts[process_index % len(self.mounts)]

    def node_for(self, process_index: int) -> Node:
        return self.client_nodes[process_index % len(self.client_nodes)]

    def call(self, genfunc, *args) -> Any:
        """Run one client coroutine to completion (convenience for
        examples/tests): ``dep.call(dep.mounts[0].mkdir, "/x")``."""
        proc = self.client_nodes[0].spawn(genfunc(*args))
        return self.cluster.sim.run(until=proc)


def _build_backends(cluster: Cluster, kind: str, n_backends: int,
                    params: SimParams, n_oss: int, pvfs_servers: int,
                    bus: Optional[TraceBus] = None):
    backends = []
    for b in range(n_backends):
        if kind == "lustre":
            backends.append(build_lustre(cluster, f"lustre{b}", n_oss=n_oss,
                                         params=params.lustre, bus=bus))
        elif kind == "pvfs":
            backends.append(build_pvfs(cluster, f"pvfs{b}",
                                       n_servers=pvfs_servers,
                                       params=params.pvfs, bus=bus))
        elif kind == "local":
            node = cluster.add_node(f"local{b}", cores=params.node_cores)
            backends.append(LocalFS(node))
        else:
            raise ValueError(f"unknown backend kind {kind!r}")
    return backends


def build_dufs_deployment(
    n_zk: int = 8,
    n_backends: int = 2,
    n_client_nodes: int = 8,
    backend: str = "local",
    params: Optional[SimParams] = None,
    n_oss_per_lustre: int = 1,
    pvfs_servers_per_instance: int = 2,
    co_locate_zk: bool = True,
    mapping_strategy: str = "md5mod",
    seed: int = 0,
    zk_request_timeout: Optional[float] = None,
    zk_max_retries: Optional[int] = None,
    fault: Optional[FaultToleranceParams] = None,
    bus: Optional[TraceBus] = None,
    cache: Optional[CacheParams] = None,
    n_shards: int = 1,
    shard_subtrees: Optional[dict] = None,
    resolve: Optional[ResolveParams] = None,
    awrite: Optional[AsyncParams] = None,
) -> DUFSDeployment:
    """Wire up a complete DUFS installation on a fresh simulated cluster.

    ``backend`` selects the physical filesystems being merged: ``"lustre"``
    (each instance = 1 MDS + ``n_oss_per_lustre`` OSS),  ``"pvfs"`` (each
    instance = ``pvfs_servers_per_instance`` combined metadata/data
    servers) or ``"local"`` (cheap in-memory, for tests/examples).

    Fault tolerance: each ZK client follows ``fault`` (default:
    ``params.fault`` — finite timeouts, retries with backoff, fail-over
    between servers), so a lost message or crashed server can no longer
    hang a deployment. ``zk_request_timeout`` / ``zk_max_retries``
    override those two fields of that policy for the whole deployment.
    The same policy carries the request-lifecycle layer, all off by
    default — a deadline on every attempt, a token-bucket retry budget
    and per-endpoint circuit breakers
    (``FaultToleranceParams.resilience_on()`` is the everything-sensible
    preset); off leaves runs byte-identical to pre-resilience builds.

    Tracing: pass ``bus=TraceBus()`` to collect per-op service-time
    metrics from every endpoint — the ZK servers, the back-end servers,
    the ZK client retry path, and the DUFS client entry points — on one
    :class:`~repro.svc.TraceBus` (``deployment.bus``). Recording is pure
    bookkeeping: it adds no simulator events, so traced and untraced runs
    are event-for-event identical.

    Caching: ``cache`` (default: ``params.cache``, disabled) adds the
    cache stage to every client's lookup chain
    (:class:`~repro.core.mdcache.CoherentMDCache`) — positive and
    readdir entries invalidated by ZooKeeper watches, with read
    coalescing. The default policy is off: the stage is not constructed
    and the RPC stream is byte-identical to the paper's client.

    Sharding: ``n_shards > 1`` splits the ``n_zk`` server budget into
    that many *independent* ensembles (``max(1, n_zk // n_shards)``
    servers each — ``n_zk`` is always the TOTAL, so shard counts compare
    at equal hardware) and gives every client a
    :class:`~repro.mds.ShardedMDS` routing the namespace across them via
    a deterministic :class:`~repro.mds.ShardMap` (``shard_subtrees`` pins
    whole subtrees to chosen shards). The default ``n_shards=1`` builds the exact
    pre-sharding deployment: same objects, names and event order.

    Path resolution: ``resolve`` (default: ``params.resolve``, off)
    switches the clients to *thin* mode — lookups go through the metadata
    plane's server-side ``resolve`` endpoint, one RPC per lookup at any
    path depth (:class:`~repro.models.params.ResolveParams`;
    ``ResolveParams.resolve_on()`` is the preset). Off keeps runs
    byte-identical.

    Elastic scaling: ``params.elastic`` (off by default) turns the
    static shard map into an epoch-versioned one behind a
    :class:`~repro.mds.ShardMapRegistry`, installs per-server route
    guards enforcing the epoch protocol (stale-epoch requests bounce with
    the new map; writes under a mid-copy migration park until cutover),
    wires a :class:`~repro.mds.Migrator` for live subtree moves and —
    unless ``params.elastic.autoscale`` is False — spawns the
    :class:`~repro.mds.Autoscaler` control loop that splits hot shards
    and merges cold pins by the growth of each shard's replica logs
    (``ElasticParams.elastic_on()`` is the preset). Requires
    ``n_shards >= 2``. Off keeps runs byte-identical.

    Asynchronous metadata updates: ``awrite`` (default: ``params.awrite``,
    off) puts every client in write-behind mode — namespace mutations
    append to a per-client ordered log (:mod:`repro.core.wblog`), ack
    immediately, and drain in the background in group-committed batches;
    reads are answered read-your-writes from the cache's pending-write
    overlay, and explicit barriers (``flush``/``fsync``, rename) force
    synchronous commit (``AsyncParams.async_on()`` is the preset). Off
    keeps runs byte-identical: the log is not even constructed.
    """
    # The policy kwargs are per-deployment overrides of ``params``: fold
    # them in once, so everything below reads ``params.X`` only.
    params = params or SimParams()
    zk_overrides = {k: v for k, v in (("request_timeout", zk_request_timeout),
                                      ("max_retries", zk_max_retries))
                    if v is not None}
    params = replace(
        params, fault=replace(fault or params.fault, **zk_overrides),
        cache=cache or params.cache,
        resolve=resolve or params.resolve, awrite=awrite or params.awrite)
    elastic = params.elastic
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if elastic.enabled and n_shards < 2:
        raise ValueError("elastic metadata plane requires n_shards >= 2")
    cluster = Cluster(seed=seed)
    client_nodes = [cluster.add_node(f"client{i}", cores=params.node_cores)
                    for i in range(n_client_nodes)]
    if co_locate_zk:
        zk_nodes: Sequence[Node] = client_nodes
    else:
        zk_nodes = [cluster.add_node(f"zknode{i}", cores=params.node_cores)
                    for i in range(n_zk)]
    # n_zk is the TOTAL server budget: each shard gets an independent
    # ensemble of n_zk // n_shards servers, so 1x8 / 2x4 / 4x2 sweeps
    # compare metadata planes at equal hardware.
    per_shard = max(1, n_zk // n_shards)
    ensembles = []
    for k in range(n_shards):
        if co_locate_zk:
            # Rotate so shard quorums land on different client nodes.
            off = (k * per_shard) % len(zk_nodes)
            shard_nodes = list(zk_nodes[off:]) + list(zk_nodes[:off])
        else:
            shard_nodes = list(zk_nodes[k * per_shard:(k + 1) * per_shard]) \
                or list(zk_nodes)
        ensembles.append(build_ensemble(
            cluster, shard_nodes, per_shard, params=params.zk, bus=bus,
            name="zk" if n_shards == 1 else f"s{k}zk", shard=k))
    ensemble = ensembles[0]
    backends = _build_backends(cluster, backend, n_backends, params,
                               n_oss_per_lustre, pvfs_servers_per_instance,
                               bus=bus)

    shard_map = ShardMap(n_shards, shard_subtrees) if n_shards > 1 else None
    registry = None
    if elastic.enabled:
        registry = ShardMapRegistry(shard_map)
        # One shared guard closure on every server of every ensemble:
        # the epoch protocol is enforced where requests land, not where
        # they are issued.
        guard = make_route_guard(registry)
        for ens in ensembles:
            for srv in ens.servers:
                srv.route_guard = guard
    clients, mounts, zk_clients = [], [], []
    for i, node in enumerate(client_nodes):
        # One ZK client per shard per node; each prefers a server of ITS
        # shard's ensemble that is co-located on this node, else
        # round-robins over that shard's live servers.
        shard_clients = []
        for k, ens in enumerate(ensembles):
            prefer = next((ep for s, ep in zip(ens.servers, ens.endpoints)
                           if s.node is node), None) if co_locate_zk else None
            if prefer is None:
                prefer = ens.server_for(i)
            shard_clients.append(ZKClient(
                node, ens.endpoints, prefer=prefer,
                name=f"dufszk{i}" if n_shards == 1 else f"dufszk{i}s{k}",
                fault=params.fault, bus=bus))
        # One shard is the paper's deployment: the bare client, which
        # DUFSClient wraps in the zero-event SingleEnsembleMDS.
        service = shard_clients[0] if n_shards == 1 else ShardedMDS(
            shard_clients, shard_map=shard_map, name=f"mds{i}", bus=bus,
            registry=registry)
        backend_clients = [
            be.client(node) if backend != "local" else be.client()
            for be in backends
        ]
        mapping = MappingFunction(n_backends, strategy=mapping_strategy)
        # Deterministic per-deployment client ids (a high offset keeps them
        # disjoint from the global allocator used by ad-hoc clients), so
        # identical seeds produce identical FIDs and placements.
        dufs = DUFSClient(node, service, backend_clients, params,
                          mapping=mapping, client_id=0x5EED0000 + i,
                          bus=bus, name=f"dufs{i}")
        if bus is not None:
            instrument_client(dufs, TRACED_CLIENT_OPS, bus,
                              deployment="dufs", endpoint=f"dufs{i}",
                              retries_of=lambda s=service: s.last_retries)
        mount = FuseMount(node, OperationTable.from_client(dufs),
                          params=params.fuse, name=f"dufs{i}")
        clients.append(dufs)
        mounts.append(mount)
        zk_clients.append(shard_clients[0])
    migrator = autoscaler_proc = None
    if registry is not None:
        # The migrator's private per-shard clients stay UNSTAMPED
        # (map_epoch is never set), so the route guards wave its copy
        # traffic through the very freeze it announces.
        mig_node = client_nodes[0]
        mig_clients = [
            ZKClient(mig_node, ens.endpoints, prefer=ens.server_for(0),
                     name=f"migzk{k}", fault=params.fault, bus=bus)
            for k, ens in enumerate(ensembles)]
        migrator = Migrator(registry, mig_clients, drain=elastic.drain)
        if elastic.autoscale:
            autoscaler_proc = Autoscaler(registry, migrator,
                                         [c.zk for c in clients],
                                         params=elastic,
                                         ensembles=ensembles)
            mig_node.spawn(autoscaler_proc.run(), "autoscaler")
    return DUFSDeployment(cluster, params, client_nodes, ensemble, backends,
                          clients, mounts, zk_clients, bus=bus,
                          ensembles=ensembles, n_shards=n_shards,
                          registry=registry, migrator=migrator,
                          autoscaler=autoscaler_proc)
