"""End-to-end chaos runs against the three metadata services.

``run_chaos`` builds a deployment (DUFS over ZooKeeper, single-MDS Lustre
with a standby, or PVFS), drives a steady metadata op stream through it
while a :class:`~repro.chaos.schedule.ChaosSchedule` replays, and reports
how the service degraded: ops completed/failed, the longest stall in the
op stream (the paper's availability metric), the chaos event trace, and —
for DUFS — the post-fault namespace audit.

The symbolic target vocabulary is shared across deployments so one
schedule can be compared apples-to-apples:

- ``meta:<i>`` — the i-th metadata server node (ZK server / the MDS / the
  i-th PVFS server)
- ``zk:<i>`` / ``zk:leader`` — a specific ZooKeeper server (DUFS only;
  with a sharded metadata plane the index runs over all shards' servers
  in shard order)
- ``shard:<k>`` — the current leader of metadata shard ``k``'s ensemble
  (DUFS with ``shards > 1``): per-shard fault targeting, so a schedule
  can kill exactly one namespace slice's quorum
- ``client:<i>`` — the i-th client node
- ``backend:<i>`` — DUFS back-end index (degraded mode)
- ``fs`` — the filesystem object itself (``failover`` events)
- ``migration:src`` / ``migration:dst`` — the source/destination shard
  leader of the currently in-flight subtree migration (DUFS with
  ``elastic``): resolved lazily at fire time, so a schedule can crash a
  shard *mid-copy* and the audit proves the torn migration rolls forward
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import FSError
from ..models.params import (AsyncParams, CacheParams, ElasticParams,
                             FaultToleranceParams, LustreParams, PVFSParams,
                             SimParams, ZKParams)
from ..sim.node import Cluster
from .audit import AuditReport, audit_dufs
from .engine import ChaosEngine
from .schedule import ChaosSchedule, FaultSpec, RandomChaos

DEPLOYMENTS = ("dufs", "lustre", "pvfs")

#: The shape of every run: one ``create`` per ``OP_INTERVAL`` seconds,
#: started (with the schedule) after ``SETTLE`` seconds of warm-up, and
#: ``TAIL`` seconds after the last op for recoveries to land.
OP_INTERVAL = 0.01
SETTLE = 1.0
TAIL = 3.0


@dataclass
class ChaosRunResult:
    deployment: str
    completed: int
    failed: int
    max_stall: float
    elapsed: float
    issued: int = 0
    trace: List[str] = field(default_factory=list)
    audit: Optional[AuditReport] = None

    def summary(self) -> str:
        in_flight = self.issued - self.completed - self.failed
        counts = f"  ops completed: {self.completed}   failed: {self.failed}"
        if in_flight > 0:
            # The run window closed before the stream drained: the audit
            # legitimately sees the in-flight op's physical residue.
            counts += (f"   (window closed with {in_flight} op in flight,"
                       f" {self.issued} issued)")
        lines = [
            f"chaos run: {self.deployment} "
            f"({len(self.trace)} fault events over {self.elapsed:.1f}s)",
            counts,
            f"  longest metadata stall: {self.max_stall * 1000:,.0f} ms",
        ]
        for line in self.trace:
            lines.append(f"  [chaos] {line}")
        if self.audit is not None:
            lines.append("  " + self.audit.to_text().replace("\n", "\n  "))
        return "\n".join(lines)


def max_gap(completions: List[float]) -> float:
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    return max(gaps) if gaps else 0.0


def default_schedule(deployment: str, duration: float,
                     seed: int = 0) -> ChaosSchedule:
    """A representative schedule per deployment: DUFS gets random minority
    ZK crashes, Lustre an MDS failover, PVFS one metadata-server outage."""
    if deployment == "dufs":
        targets = [f"zk:{i}" for i in range(5)]
        return RandomChaos(targets, duration, seed=seed, rate=0.6,
                           mean_downtime=0.8).schedule()
    if deployment == "lustre":
        return ChaosSchedule().failover(duration * 0.3, "fs")
    if deployment == "pvfs":
        sched = ChaosSchedule()
        sched.crash(duration * 0.3, "meta:1")
        sched.recover(duration * 0.6, "meta:1")
        return sched
    raise ValueError(f"unknown deployment {deployment!r}")


# -- deployment adapters ----------------------------------------------------
#: The Lustre/PVFS clients of a chaos run: five 0.5 s attempts, so a dead
#: server surfaces as EIO (a counted failed op), not a hang.
_BACKEND_FAULT = FaultToleranceParams.backend(request_timeout=0.5,
                                              max_retries=4)


def _build_dufs(seed: int, cache: Optional[CacheParams] = None,
                shards: int = 1,
                fault: Optional[FaultToleranceParams] = None,
                elastic: Optional[ElasticParams] = None,
                awrite: Optional[AsyncParams] = None):
    from ..core import build_dufs_deployment

    params = SimParams()
    params.zk = ZKParams(failure_detection=True, session_tracking=True,
                         ping_interval=0.1, ping_timeout=0.3,
                         election_tick=0.05)
    # shards == 1 keeps the historical 5-server build; sharded chaos runs
    # give each shard a 3-server quorum (crash one and its slice elects).
    n_zk = 5 if shards <= 1 else 3 * shards
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=2, n_client_nodes=2,
                                backend="local", params=params,
                                co_locate_zk=False, seed=seed, fault=fault,
                                zk_request_timeout=0.4, zk_max_retries=10,
                                cache=cache, n_shards=shards,
                                autoscale=elastic, awrite=awrite)
    flat_servers = [s for ens in dep.ensembles for s in ens.servers]

    def resolve(symbol: str):
        kind, _, arg = symbol.partition(":")
        if kind == "zk" and arg == "leader":
            leader = dep.ensemble.leader
            if leader is None:
                raise RuntimeError("no ZooKeeper leader to crash")
            return leader.node
        if kind == "shard":
            ens = dep.ensembles[int(arg) % len(dep.ensembles)]
            target = ens.leader or ens.servers[0]
            return target.node
        if kind == "migration":
            # Lazily resolved at fire time: the shard currently serving
            # the source (or destination) of the in-flight migration.
            if dep.registry is None or not dep.registry.migrations:
                raise RuntimeError("no in-flight migration to target")
            mig = dep.registry.migrations[0]
            shard = mig.src if arg == "src" else mig.dst
            ens = dep.ensembles[shard]
            target = ens.leader or ens.servers[0]
            return target.node
        if kind in ("zk", "meta"):
            return flat_servers[int(arg)].node
        if kind == "client":
            return dep.client_nodes[int(arg)]
        if kind == "backend":
            return int(arg)
        return dep.cluster.nodes[symbol]

    def apply_backend(index: int, down: bool) -> None:
        for cli in dep.clients:
            if down:
                cli.mark_backend_down(index)
            else:
                cli.mark_backend_up(index)

    client = dep.mounts[0]
    return dep.cluster, dep, client, dep.client_nodes[0], resolve, \
        apply_backend


def _build_lustre(seed: int):
    from ..pfs.lustre import build_lustre

    params = LustreParams(fault=_BACKEND_FAULT, failover_takeover_delay=2.0)
    cluster = Cluster(seed=seed)
    node = cluster.add_node("client")
    fs = build_lustre(cluster, "ha", params=params, with_standby=True)

    def resolve(symbol: str):
        kind, _, arg = symbol.partition(":")
        if kind == "meta" or symbol == "mds":
            return fs.mds.node
        if symbol == "fs":
            return fs
        if kind == "client":
            return node
        return cluster.nodes[symbol]

    return cluster, fs, fs.client(node), node, resolve, None


def _build_pvfs(seed: int):
    from ..pfs.pvfs import build_pvfs

    params = PVFSParams(fault=_BACKEND_FAULT)
    cluster = Cluster(seed=seed)
    node = cluster.add_node("client")
    fs = build_pvfs(cluster, "pv", n_servers=4, params=params)

    def resolve(symbol: str):
        kind, _, arg = symbol.partition(":")
        if kind == "meta":
            return fs.servers[int(arg) % len(fs.servers)].node
        if kind == "client":
            return node
        return cluster.nodes[symbol]

    return cluster, fs, fs.client(node), node, resolve, None


_BUILDERS = {"dufs": _build_dufs, "lustre": _build_lustre,
             "pvfs": _build_pvfs}


def run_chaos(
    deployment: str = "dufs",
    schedule: Optional[ChaosSchedule] = None,
    seed: int = 0,
    ops: int = 400,
    on_event: Optional[Callable[[FaultSpec, tuple], None]] = None,
    cache: Optional[CacheParams] = None,
    shards: int = 1,
    fault: Optional[FaultToleranceParams] = None,
    elastic: Optional[ElasticParams] = None,
    awrite: Optional[AsyncParams] = None,
) -> ChaosRunResult:
    """One chaos experiment: op stream + schedule replay + (DUFS) audit.

    The op stream issues one ``create`` every ``OP_INTERVAL`` seconds and
    tolerates failures (each is counted, never fatal) — exactly the
    availability measurement of the paper's reliability discussion. The
    schedule starts when the op stream does, after ``SETTLE`` seconds of
    warm-up. ``cache`` (DUFS only) runs the clients with the coherent
    metadata cache enabled, so the audit doubles as a coherence check
    under faults. ``shards`` (DUFS only) runs the sharded metadata plane
    (3 ZK servers per shard) and unlocks ``shard:<k>`` targets; the audit
    then exercises the merged-view intent reconciliation. ``fault``
    (DUFS only) runs the ZooKeeper clients under the given fault policy —
    with the run's 0.4 s request timeout and 10 retries — e.g. with
    deadlines / retry budget / breakers / hedged reads on, so a chaos
    campaign can prove hedging and fast-fails never corrupt the namespace.
    ``elastic`` (DUFS only, needs ``shards >= 2``) runs the elastic
    metadata plane and unlocks the ``migration:src`` / ``migration:dst``
    targets for crash-during-migration experiments. ``awrite`` (DUFS
    only) runs the clients in write-behind mode — the audit then proves
    crash losses stay confined to the acked-but-uncommitted window
    (counted as ``lost_unacked``, never as namespace damage).
    """
    if deployment not in DEPLOYMENTS:
        raise ValueError(f"unknown deployment {deployment!r}")
    dufs_only = dict(cache=cache, shards=shards, fault=fault,
                     elastic=elastic, awrite=awrite)
    builder = _BUILDERS[deployment]
    if deployment == "dufs":
        built = builder(seed, **dufs_only)
    else:
        for option, value in dufs_only.items():
            if value != (1 if option == "shards" else None):
                raise ValueError(f"{option} is a DUFS-only option")
        built = builder(seed)
    cluster, dep, client, node, resolve, apply_backend = built
    duration = ops * OP_INTERVAL
    if schedule is None:
        schedule = default_schedule(deployment, duration, seed=seed)

    completions: List[float] = []
    failures: List[float] = []
    issued = [0]

    def workload():
        yield from client.mkdir("/d")
        for i in range(ops):
            issued[0] += 1
            try:
                yield from client.create(f"/d/f{i}")
                completions.append(cluster.sim.now)
            except FSError:
                failures.append(cluster.sim.now)
            yield cluster.sim.timeout(OP_INTERVAL)

    cluster.sim.run(until=SETTLE)
    engine = ChaosEngine(cluster, schedule, resolve=resolve,
                         on_event=on_event, apply_backend=apply_backend)
    engine.start()
    node.spawn(workload())
    cluster.sim.run(until=SETTLE + duration + TAIL)

    report = audit_dufs(dep) if deployment == "dufs" else None
    return ChaosRunResult(
        deployment=deployment,
        completed=len(completions),
        failed=len(failures),
        max_stall=max_gap(completions),
        elapsed=cluster.sim.now - SETTLE,
        issued=issued[0],
        trace=list(engine.trace),
        audit=report,
    )
