"""Service-time parameters for every simulated component.

All times are seconds of *service demand* (CPU occupancy or disk latency),
not end-to-end latencies; end-to-end behaviour emerges from contention in
the simulator. Defaults are calibrated against the paper's testbed (dual
Xeon E5335 = 8 cores/node, 1 GigE, Lustre 1.8.3, PVFS 2.8.2, ZooKeeper of
that era) so that the simulated throughput curves land near the published
figures. The calibration procedure and resulting paper-vs-measured numbers
are recorded in EXPERIMENTS.md.

Every parameter can be overridden per-experiment; the ablation benchmarks
do exactly that (e.g. disabling DLM lock callbacks, changing group-commit
batching).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class FaultToleranceParams:
    """When a client gives up: the one per-client fault policy, read by
    the ZooKeeper, Lustre and PVFS clients alike (:mod:`repro.resilience`).

    ``request_timeout`` (``None`` = wait forever) and ``max_retries`` bound
    a single RPC; the retry loop sleeps between attempts with
    *decorrelated jitter* backoff (``sleep = min(cap, uniform(base,
    3 * prev))``; ``backoff_base`` 0 = retry at once, no RNG draw) and
    gives up early once ``op_budget`` seconds (0 = unbounded) have elapsed
    for the whole operation. The ZooKeeper client additionally fails over
    between servers and transparently re-establishes its session after a
    :class:`~repro.zk.errors.SessionExpiredError`. The class defaults are
    the ZooKeeper client's; :meth:`backend` is the Lustre/PVFS default.

    The request-lifecycle mechanisms below all default **off**: a
    deployment built with them off schedules exactly the same simulator
    events as one built before they existed (byte-identical replay).

    - *Deadline propagation* (``deadline_propagation``): every top-level
      operation carries the absolute deadline ``start + op_budget``; RPCs
      attach it to the wire request, nested RPCs inherit the remaining
      budget, and the service kernel drops requests that arrive expired
      and cancels read handlers whose deadline passes mid-service.
    - *Retry budget* (``retry_budget`` > 0): a per-client token bucket —
      each retry spends one token, each success refills ``retry_refill`` —
      so a retry storm self-extinguishes instead of amplifying overload.
    - *Circuit breakers* (``breaker_enabled``): per-endpoint closed → open
      after ``breaker_threshold`` consecutive timeout/error completions;
      open endpoints fail fast for ``breaker_cooldown`` seconds, then one
      half-open probe decides re-close vs re-open.
    - *Hedged reads* (``hedge_enabled``, ZooKeeper only): idempotent
      lookups are re-issued to a different live server after the p95 of
      recently observed read latency (:mod:`repro.resilience.hedge`);
      first reply wins, the loser is cancelled. Writes are never hedged.
    """

    request_timeout: Optional[float] = 5.0
    max_retries: int = 6
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    op_budget: float = 60.0            # wall-clock budget per operation
    deadline_propagation: bool = False
    retry_budget: float = 0.0          # token-bucket cap; 0 = unlimited
    retry_refill: float = 0.1          # tokens returned per success
    breaker_enabled: bool = False
    breaker_threshold: int = 5         # consecutive failures to trip
    breaker_cooldown: float = 1.0      # open -> half-open delay (seconds)
    hedge_enabled: bool = False

    @classmethod
    def backend(cls, **overrides) -> "FaultToleranceParams":
        """The Lustre/PVFS client default, the 1.8/2.8-era behaviour: no
        RPC timeout, hence never a retry, a backoff or a budget. Failover
        and chaos configurations override ``request_timeout`` and
        ``max_retries`` so a dead server surfaces as EIO, not a hang."""
        base = dict(request_timeout=None, max_retries=0, backoff_base=0.0,
                    op_budget=0.0)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def resilience_on(cls, **overrides) -> "FaultToleranceParams":
        """The standard enabled policy used by benchmarks and chaos runs:
        deadlines + retry budgets + breakers (hedging stays opt-in — under
        overload it adds load; enable it explicitly for tail-latency
        experiments)."""
        base = dict(deadline_propagation=True, retry_budget=10.0,
                    breaker_enabled=True)
        base.update(overrides)
        return cls(**base)


@dataclass
class ZKParams:
    """ZooKeeper server cost model.

    The read path is one local in-memory lookup; the write path is the ZAB
    pipeline: leader request processing grows with ensemble size (it must
    stream a proposal to, and absorb an ack from, every follower), while
    followers pay logging and apply costs. Log writes are group-committed
    (one fsync covers a batch), as the real server does.
    """

    read_cpu: float = 380e-6           # serve get/exists/get_children locally
    # Server-side full-path resolution (the FalconFS lever): one ``resolve``
    # RPC walks the whole ancestor chain on the server. The walk pays
    # ``resolve_component_cpu`` per component missing from the server's
    # (bounded) dentry cache on top of the endpoint's base read cost.
    # Deployments that never issue a resolve (the default client policy)
    # schedule exactly the same events as before this field existed.
    resolve_component_cpu: float = 85e-6
    write_leader_cpu: float = 470e-6   # validate + zxid + self-log (CPU part)
    write_per_follower_cpu: float = 105e-6  # marshal PROPOSE + absorb ACK
    # set/delete pay extra base work (version check, watch sweep, parent
    # cversion update) — visible at 1 server, washed out by quorum cost at
    # 8 (the Fig. 7 a-vs-b/c asymmetry).
    set_extra_cpu: float = 370e-6
    delete_extra_cpu: float = 370e-6
    follower_log_cpu: float = 95e-6   # deserialize + append to txn log
    apply_cpu: float = 60e-6           # apply committed txn to the tree
    log_delay: float = 350e-6          # group-committed fsync latency (pipelined)
    log_batch_max: int = 64            # max txns covered by one fsync
    # Leader-side write batching: up to this many validated proposals are
    # coalesced into ONE marshalled PROPOSE stream per follower (one quorum
    # round amortizes the per-follower CPU across the batch). 1 = off —
    # every write pays the full per-follower cost inline, byte-identical
    # to the unbatched pipeline.
    propose_batch_max: int = 1
    forward_cpu: float = 40e-6         # follower forwards a write to leader
    session_cpu: float = 100e-6

    # message sizes (bytes)
    req_base_size: int = 120
    resp_base_size: int = 112
    proposal_base_size: int = 160

    # Automatic snapshot+log-truncate interval (0 = only explicit
    # checkpoint() calls). The paper: "it is periodically checkpointed".
    checkpoint_interval: float = 0.0

    # session liveness (enabled only in reliability experiments)
    session_tracking: bool = False
    session_timeout: float = 1.2

    # failure detection / election (enabled only in reliability experiments)
    failure_detection: bool = False
    ping_interval: float = 0.15
    ping_timeout: float = 0.45
    election_tick: float = 0.08


@dataclass
class LustreParams:
    """Single-MDS Lustre model (version 1.8.x era).

    ``mds_cores`` bounds aggregate metadata throughput. The DLM grants
    clients cached locks on directories they look up; any namespace change
    under a directory revokes other clients' cached locks (callback RPCs) —
    with many clients hammering a shared tree this traffic plus the growing
    lock table is what bends Lustre's throughput *down* past ~128 procs,
    exactly the shape in Fig. 8/10.
    """

    mds_cores: int = 8
    oss_cores: int = 8

    # MDS CPU demand per operation type
    mkdir_cpu: float = 0.84e-3
    rmdir_cpu: float = 0.72e-3
    create_cpu: float = 0.47e-3       # open+create with intent (precreated objects)
    unlink_cpu: float = 0.60e-3
    getattr_cpu: float = 0.150e-3     # stat of a directory (MDS only)
    getattr_file_cpu: float = 0.185e-3  # stat of a file (MDS part)
    lookup_cpu: float = 0.12e-3
    readdir_cpu_per_entry: float = 3.0e-6
    readdir_cpu_base: float = 0.2e-3
    rename_cpu: float = 1.3e-3
    setattr_cpu: float = 0.5e-3

    # OSS costs
    glimpse_cpu: float = 400e-6         # file-size glimpse on stat
    object_create_cpu: float = 120e-6  # amortized (precreation batches)
    object_destroy_cpu: float = 150e-6

    # DLM model
    dlm_enabled: bool = True
    revoke_cpu: float = 35e-6          # MDS CPU to issue one blocking callback
    lock_grant_cpu: float = 18e-6
    # MDS bookkeeping grows with resident lock count (hash/LRU pressure):
    lock_table_cpu_coef: float = 9e-6  # × ln(1 + locks/1024) added per op

    # Service-thread thrashing: per-request cost multiplier
    # 1 + thrash_coef * inflight / thrash_norm (inflight = queue depth at
    # the MDS). Lustre 1.8's fixed thread pool degrades under deep queues.
    thrash_coef: float = 0.55
    thrash_read_coef: float = 0.12
    thrash_norm: float = 64.0

    # journal (group-committed; pipelined latency, not a throughput cap)
    journal_delay: float = 0.4e-3

    # Client fault policy. Failover configurations set a timeout and a
    # retry bound so clients detect a dead MDS and retry against the
    # standby.
    fault: FaultToleranceParams = field(
        default_factory=FaultToleranceParams.backend)
    # Standby takeover delay: detect + mount shared MDT + replay journal.
    failover_takeover_delay: float = 2.0

    # directory entry ops slow down logarithmically with directory size
    dirent_cpu_coef: float = 18e-6     # × ln(1 + entries)


@dataclass
class PVFSParams:
    """PVFS2 model (version 2.8.x era).

    PVFS2 has no client caching and no locks; every operation resolves the
    path component-by-component with a server RPC per component, and
    mutations are synchronous Berkeley-DB transactions on the owning
    server's disk. Creates additionally allocate one datafile handle on
    every I/O server. This combination is why PVFS2's create rates are two
    orders of magnitude below DUFS in Fig. 10 while its read-only rates are
    merely a few times slower.
    """

    n_servers: int = 4
    server_cores: int = 2              # request-processing effective parallelism
    lookup_cpu: float = 60e-6          # resolve one path component
    getattr_cpu: float = 80e-6
    getattr_dfile_cpu: float = 36e-6   # per-datafile size probe on file stat
    create_meta_cpu: float = 260e-6
    create_dfile_cpu: float = 140e-6   # per I/O server datafile create
    crdirent_cpu: float = 220e-6       # insert dirent into parent
    remove_cpu: float = 240e-6
    mkdir_cpu: float = 300e-6
    readdir_cpu_base: float = 180e-6
    readdir_cpu_per_entry: float = 2.5e-6
    setattr_cpu: float = 180e-6

    # synchronous metadata commits (BDB txn + fdatasync); serialized per disk
    disk_txn: float = 8.0e-3
    disk_batch_max: int = 1            # dbpf fsyncs each metadata txn

    # Client fault policy. Chaos runs set a timeout and a retry bound so a
    # crashed server surfaces as EIO, not a hang.
    fault: FaultToleranceParams = field(
        default_factory=FaultToleranceParams.backend)


@dataclass
class FUSEParams:
    """User/kernel crossing cost for a FUSE filesystem (per VFS call)."""

    crossing_cpu: float = 90e-6        # request side (kernel → userspace)
    completion_cpu: float = 55e-6      # response side
    readdir_per_entry_cpu: float = 0.4e-6
    # libfuse worker-thread pool: at most this many requests of one mount
    # are in userspace at a time (multithreaded fuse_loop_mt of the era).
    max_workers: int = 10


@dataclass
class DUFSParams:
    """DUFS client library costs (excluding ZK / back-end / FUSE, which are
    modeled by their own components)."""

    fid_generate_cpu: float = 2e-6
    mapping_cpu: float = 6e-6          # MD5 of 16 bytes + mod N
    znode_codec_cpu: float = 8e-6      # encode/decode the znode data field
    client_logic_cpu: float = 28e-6


@dataclass
class CacheParams:
    """Client-side coherent metadata cache (:mod:`repro.core.mdcache`).

    Disabled by default: a deployment built with the default policy issues
    exactly the same ZooKeeper RPC stream as one built before the cache
    existed (the trace-determinism tests rely on this). With ``enabled``
    the DUFS client caches positive lookups (path -> payload + znode
    stat), negative lookups, and readdir listings, keeps them coherent
    with one-shot ZooKeeper watches registered at read time, and
    coalesces concurrent same-path lookups into one in-flight RPC.

    ``ttl`` bounds how long a positive entry may be served without
    revalidation: 0 means no time bound — staleness is bounded only by
    watch delivery (one cast after the write commits) plus the
    watch-loss flush on session re-establishment or server fail-over.
    ``negative_ttl`` bounds ENOENT caching; negatives carry no watch, so
    0 (off) is the coherent default.
    """

    enabled: bool = False
    capacity: int = 4096               # positive entries (LRU)
    ttl: float = 0.0                   # 0 = watch-coherent, no time bound
    negative_ttl: float = 0.0          # 0 = negative caching off
    hit_cpu: float = 1.5e-6            # client CPU per cache hit

    @classmethod
    def caching_on(cls, **overrides) -> "CacheParams":
        """The standard enabled policy used by benchmarks and chaos runs."""
        return cls(enabled=True, **overrides)


@dataclass
class ResolveParams:
    """Path-resolution policy for the DUFS client (:mod:`repro.core`).

    The paper's prototype is a *fat client*: the kernel VFS walks the path
    component-by-component against the mount's dcache, and DUFS itself
    re-reads znodes per level on error/parent checks. This policy selects
    where resolution happens:

    - **default (off)** — the pre-resolve client, byte-identical replay:
      lookups are one ``get`` against the full path, parent checks use the
      client dcache with a single fallback read.
    - ``enabled`` — the *thin client*: stat/lookup/parent-prereqs route
      through the server-side ``resolve`` endpoint — one RPC per lookup
      regardless of depth, answered from the server dentry cache, hedged
      and breaker-guarded like any idempotent read.
    """

    enabled: bool = False              # server-side resolution (thin client)

    @classmethod
    def resolve_on(cls) -> "ResolveParams":
        """The standard thin-client policy used by benchmarks."""
        return cls(enabled=True)


@dataclass
class AsyncParams:
    """Write-behind metadata updates (:mod:`repro.core.wblog`).

    Off by default — the synchronous client is byte-identical to the
    pre-async build: no per-client mutation log is constructed, no
    drainer process spawns, and every mutation pays the full quorum
    round trip before returning (the replay-pin tests rely on this).

    With ``enabled`` each DUFS client appends creates/deletes/setdata to
    an ordered :class:`~repro.core.wblog.WriteBehindLog`, acks the
    caller after ``ack_cpu`` seconds of client CPU, and drains the log
    asynchronously through a group-commit
    :class:`~repro.svc.batch.Batcher` in batches of up to 64 ops
    (``core.wblog.DRAIN_BATCH_MAX``), issuing non-conflicting ops of a batch
    concurrently (per-path/ancestor dependency order and per-client
    program order of conflicting ops are preserved). Read-your-writes is
    served from the mdcache's pending-write overlay until the drain
    commits. ``max_pending`` bounds the acked-but-uncommitted window: an
    append past the bound blocks until the drain catches up, which is
    also the most metadata a client crash can lose.
    """

    enabled: bool = False
    max_pending: int = 4096            # acked-but-uncommitted bound
    ack_cpu: float = 4e-6              # client CPU to append + ack

    @classmethod
    def async_on(cls, **overrides) -> "AsyncParams":
        """The standard write-behind policy used by benchmarks/chaos."""
        base = dict(enabled=True)
        base.update(overrides)
        return cls(**base)


@dataclass
class ElasticParams:
    """Elastic metadata plane: epoch-versioned shard map, load-driven
    split/merge, live subtree migration (:mod:`repro.mds.autoscaler`).

    Off by default — the static plane is byte-identical to the pre-elastic
    model: no registry, no route guards, no request stamping, no load
    accounting. ``elastic_on()`` is the standard bench/chaos preset.

    The server-budget framing: shard count is fixed at deployment (equal
    hardware across all compared layouts); the autoscaler spends only
    routing state — subtree pins, capped at ``max_pins`` — moved live by
    the migrator.
    """

    enabled: bool = False
    autoscale: bool = True             # spawn the control loop (False:
    #                                    registry/migrator only — manual
    #                                    migrations, e.g. chaos scripts)
    interval: float = 0.1              # control-loop period (s)
    window: float = 0.25               # TraceBus op-rate window (s)
    hysteresis: int = 2                # consecutive hot/quiet ticks to act
    cooldown: float = 0.4              # min seconds between moves of a root
    max_pins: int = 8                  # pin-table budget (server budget)
    min_window_ops: int = 40           # ignore windows below this total
    #                                    rate (ops/s): near-idle, no signal
    merge_min_ops: int = 4             # unpin when subtree rate (ops/s)
    #                                    stays below this
    moves_per_tick: int = 2            # migration rate limit per interval
    drain: float = 0.05                # freeze->copy drain for in-flight writes

    @classmethod
    def elastic_on(cls, **overrides) -> "ElasticParams":
        """The standard elastic policy used by benchmarks and chaos."""
        base = dict(enabled=True)
        base.update(overrides)
        return cls(**base)


@dataclass
class SimParams:
    """Bundle of every model, plus testbed-level knobs."""

    zk: ZKParams = field(default_factory=ZKParams)
    lustre: LustreParams = field(default_factory=LustreParams)
    pvfs: PVFSParams = field(default_factory=PVFSParams)
    fuse: FUSEParams = field(default_factory=FUSEParams)
    dufs: DUFSParams = field(default_factory=DUFSParams)
    fault: FaultToleranceParams = field(default_factory=FaultToleranceParams)
    cache: CacheParams = field(default_factory=CacheParams)
    resolve: ResolveParams = field(default_factory=ResolveParams)
    elastic: ElasticParams = field(default_factory=ElasticParams)
    awrite: AsyncParams = field(default_factory=AsyncParams)

    node_cores: int = 8                # dual Xeon E5335

    def with_overrides(self, **kwargs) -> "SimParams":
        """Shallow-copy with replaced sub-models (ablation helper)."""
        return replace(self, **kwargs)
