"""One ZooKeeper server: ZAB write pipeline, local reads, sessions, watches.

Roles follow the real system: a single **leader** sequences all writes
(validate against a speculative tree → assign zxid → stream PROPOSE to
followers → collect quorum ACKs → COMMIT), while **followers** serve reads
from their committed tree and forward writes to the leader. Txn logging is
group-committed: a batch of proposals shares one fsync, which is what lets
the real server sustain thousands of writes per second through a
millisecond-latency disk.

Durable state (survives :meth:`Node.crash`): the txn log, the last
checkpoint snapshot, and the promised epoch. Everything else is volatile
and rebuilt on recovery by snapshot + log replay.

Leader election lives in :mod:`repro.zk.election` (mixed in here via plain
method calls); throughput experiments run with a statically assigned leader
and no failure detection, matching the paper's healthy-cluster runs.
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..core.paths import ancestors
from ..models.params import ZKParams
from ..sim.core import Event, Interrupt
from ..sim.node import Node
from ..sim.resources import Store
from ..sim.rpc import Reply, _Cast
from ..svc import Batcher, Service, TraceBus
from .data import ZnodeStore, split_path, validate_path
from .election import (FOLLOWING, LEADING, LOOKING, begin_sync, follow,
                       on_vote, start_election)
from .errors import (
    BadArgumentsError,
    ConnectionLossError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    NotLeaderError,
    SessionExpiredError,
    ZKError,
)
from .protocol import (
    Ack,
    Commit,
    FollowerInfo,
    Ping,
    Pong,
    Propose,
    ProposeBatch,
    ReadRequest,
    ResolveResult,
    SyncResponse,
    Vote,
    WatchEvent,
    WriteRequest,
)

#: Resolved prefixes each server's dentry cache remembers (LRU).
DENTRY_CACHE_CAPACITY = 65536


@dataclass
class _Outstanding:
    txn: tuple
    result: Any
    done: Event
    acks: Set[int] = field(default_factory=set)
    ready: bool = False


class _Hold(Event):
    """A parked read-your-writes hold (``ZKServer._hold``): the event its
    holder waits on, the instant its ``log_delay`` grid counts from, and
    whether leaving FOLLOWING also lets it pass."""

    __slots__ = ("at", "bound")


class ZKServer:
    """A member of a ZooKeeper ensemble, bound to a simulated node."""

    def __init__(
        self,
        node: Node,
        sid: int,
        peers: Dict[int, str],
        params: Optional[ZKParams] = None,
        static_leader: Optional[int] = None,
        observer: bool = False,
        voter_count: Optional[int] = None,
        bus: Optional[TraceBus] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.sid = sid
        self.peers = dict(peers)            # sid -> endpoint (includes self)
        self.endpoint = peers[sid]
        self.params = params or ZKParams()
        self.static_leader = static_leader
        # Observers replicate state and serve reads but never vote or ack
        # proposals — read fan-out without slowing the write quorum.
        self.observer = observer
        self.ensemble_size = voter_count if voter_count is not None \
            else len(peers)
        self.quorum = self.ensemble_size // 2 + 1

        # ---- durable state (conceptually on disk; survives crash) --------
        self.log: List[Tuple[int, tuple]] = []   # (zxid, txn) in order
        self.promised_epoch = 0
        self._snapshot: Optional[list] = None    # last checkpoint
        self._snapshot_zxid = 0

        # ---- volatile state ----------------------------------------------
        self.store = ZnodeStore()
        self.commit_index = 0
        self.role = LOOKING
        self.epoch = 0
        self.leader_sid: Optional[int] = None
        self.activated = False                    # leader: quorum synced

        # leader-only
        self.spec_store = ZnodeStore()
        self.zxid_counter = 0
        self.outstanding: Dict[int, _Outstanding] = {}
        self.out_queue: deque[int] = deque()
        self.active_followers: Set[int] = set()
        self.active_observers: Set[int] = set()

        # follower-only
        self.pending_commit = 0                   # highest Commit.upto seen
        self._accepted_zxid = 0                   # highest zxid accepted into
                                                  # the log pipeline
        self._syncing = False                     # buffering casts
        self._presync: List[Any] = []             # proposals and commits
        self._sync_term = 0                       # owner of a sync attempt

        # Parked read-your-writes holds, sorted: (zxid, reserved id, hold).
        self._holds: List[Tuple[int, int, _Hold]] = []

        # server-side dentry cache (volatile): paths whose *existence* was
        # verified during a ``resolve`` walk. Entries carry no data — znode
        # payloads are always read from the committed tree — so a cached
        # entry only ever goes stale through deletion, which the applier
        # invalidates txn-by-txn. LRU-bounded by ``DENTRY_CACHE_CAPACITY``.
        self._dentries: "OrderedDict[str, None]" = OrderedDict()

        # sessions / watches
        self._session_counter = 0
        self.sessions: Dict[int, str] = {}        # session id -> client endpoint
        self.session_last_contact: Dict[int, float] = {}
        self.data_watches: Dict[str, Set[str]] = {}
        self.child_watches: Dict[str, Set[str]] = {}
        self.exist_watches: Dict[str, Set[str]] = {}

        # liveness (failure detection mode)
        self.last_ping_at = 0.0
        self.last_pong_at: Dict[int, float] = {}
        self.election_round = 0
        self._votes: Dict[int, Tuple[int, int]] = {}
        self._my_vote: Tuple[int, int] = (0, 0)
        self._ticker_running = False   # one election ticker at a time

        # pipelines (group-commit logger; optional leader write batching)
        self._apply_kick = Store(self.sim)
        self._applier_idle = True
        self._logger: Optional[Batcher] = None
        self._proposer: Optional[Batcher] = None

        # counters for tests / benchmarks
        self.stats = {"reads": 0, "writes": 0, "proposals": 0, "commits": 0,
                      "forwards": 0, "elections": 0, "gap_resyncs": 0,
                      "resolves": 0, "dentry_hits": 0, "dentry_misses": 0}

        # Elastic metadata plane (off by default): a deployment-shared hook
        # rejecting requests whose shard-map epoch no longer routes their
        # path here, or whose path is under a mid-copy subtree migration.
        # None means no check at all — the static plane pays nothing.
        self.route_guard: Optional[Callable] = None

        self.svc = Service(node, self.endpoint, deployment="zk", bus=bus)
        self.agent = self.svc.agent
        self._register_handlers()
        node.on_crash(self._on_crash)
        node.on_recover(self._on_recover)
        self._start_pipelines()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        s = self.svc
        s.expose("read", self._h_read)
        s.expose("write", self._h_write)
        s.expose("fwd_write", self._h_fwd_write)
        s.expose("connect", self._h_connect)
        s.expose("close_session", self._h_close_session)
        s.expose("follower_info", self._h_follower_info)
        s.expose("sync", self._h_sync)
        s.expose("commit_index", self._h_commit_index)
        s.expose_fast("propose", self._f_propose)
        s.expose_fast("propose_batch", self._f_propose_batch)
        s.expose_fast("ack", self._f_ack)
        s.expose_fast("commit", self._f_commit)
        s.expose_fast("ping", self._f_ping)
        s.expose_fast("pong", self._f_pong)
        s.expose_fast("vote", self._f_vote)
        s.expose_fast("session_ping", self._f_session_ping)

    def _start_pipelines(self) -> None:
        if self._logger is None:
            self._logger = Batcher(self.node, f"zk{self.sid}.logger",
                                   self._flush_log,
                                   max_batch=self.params.log_batch_max,
                                   bus=self.svc.bus, deployment="zk")
        else:
            self._logger.restart()
        if self.params.propose_batch_max > 1:
            if self._proposer is None:
                self._proposer = Batcher(
                    self.node, f"zk{self.sid}.proposer",
                    self._flush_proposals,
                    max_batch=self.params.propose_batch_max,
                    bus=self.svc.bus, deployment="zk")
            else:
                self._proposer.restart()
        self.node.spawn(self._applier_loop(), f"zk{self.sid}.applier")
        if self.params.checkpoint_interval > 0:
            self.node.spawn(self._checkpoint_loop(), f"zk{self.sid}.ckpt")
        if self.params.failure_detection:
            self.node.spawn(self._heartbeat_loop(), f"zk{self.sid}.heartbeat")
            self.node.spawn(self._watchdog_loop(), f"zk{self.sid}.watchdog")
        if self.params.session_tracking:
            self.node.spawn(self._session_watchdog_loop(),
                            f"zk{self.sid}.sessions")

    @property
    def last_logged_zxid(self) -> int:
        return self.log[-1][0] if self.log else self._snapshot_zxid

    def followers(self) -> List[int]:
        return [sid for sid in self.peers if sid != self.sid]

    def _cast_peer(self, sid: int, method: str, args: Any, size: int = 160) -> None:
        # agent.cast, minus its frame (7 followers x 3 casts per write)
        self.agent.network.send(self.endpoint, self.peers[sid],
                                _Cast(method, args, self.endpoint), size)

    # ------------------------------------------------------------------
    # bootstrap (static roles for healthy-cluster benchmarks)
    # ------------------------------------------------------------------
    def boot_static(self) -> None:
        """Assume the configured static leader; no election traffic."""
        assert self.static_leader is not None
        self.epoch = 1
        self.promised_epoch = 1
        self.leader_sid = self.static_leader
        if self.sid == self.static_leader:
            self.role = LEADING
            self.zxid_counter = 0
            # Only voters are pre-activated; observers register themselves
            # by syncing with the leader at boot.
            self.active_followers = {s for s in self.followers()
                                     if s < self.ensemble_size}
            self.activated = True
        elif self.observer:
            begin_sync(self, self.static_leader)
        else:
            self.role = FOLLOWING
        self.last_ping_at = self.sim.now

    # ------------------------------------------------------------------
    # client-facing handlers
    # ------------------------------------------------------------------
    def _h_connect(self, src: str, args: Any) -> Generator:
        yield from self.node.cpu_work(self.params.session_cpu)
        if self.role == LOOKING:
            raise ConnectionLossError(msg=f"zk{self.sid} has no leader")
        self._session_counter += 1
        session = (self.sid << 40) | self._session_counter
        self.sessions[session] = src
        self.session_last_contact[session] = self.sim.now
        return session

    def _h_close_session(self, src: str, session: int) -> Generator:
        yield from self.node.cpu_work(self.params.session_cpu)
        yield from self._expire_session(session)
        return True

    def _f_session_ping(self, src: str, session: int) -> None:
        if session in self.sessions:
            self.session_last_contact[session] = self.sim.now

    def _session_watchdog_loop(self) -> Generator:
        """Expire sessions whose client stopped heartbeating; their
        ephemeral znodes are deleted through the normal write path —
        exactly how the real server reclaims dead clients' state."""
        timeout = self.params.session_timeout
        while True:
            try:
                yield self.sim.timeout(timeout / 2)
            except Interrupt:
                return
            now = self.sim.now
            for session, last in list(self.session_last_contact.items()):
                if now - last > timeout and session in self.sessions:
                    yield from self._expire_session(session)

    def _expire_session(self, session: int) -> Generator:
        """Delete the session's ephemerals through the normal write path."""
        self.sessions.pop(session, None)
        self.session_last_contact.pop(session, None)
        paths = sorted(self.store.ephemerals.get(session, ()), reverse=True)
        for path in paths:
            req = WriteRequest(op="delete", path=path, version=-1)
            try:
                yield from self._route_write(req)
            except ZKError:
                pass  # concurrent deletion is fine

    def _h_read(self, src: str, req: ReadRequest) -> Generator:
        yield from self.node.cpu_work(self.params.read_cpu)
        if self.role == LOOKING:
            raise ConnectionLossError(msg=f"zk{self.sid} is electing")
        if self.route_guard is not None:
            self.route_guard(req)
        self.stats["reads"] += 1
        p = self.params
        if req.op == "exists":
            stat = self.store.exists(req.path)
            if req.watch:
                table = self.data_watches if stat is not None else self.exist_watches
                table.setdefault(req.path, set()).add(src)
            return Reply(stat, size=p.resp_base_size)
        if req.op == "get":
            data, stat = self.store.get(req.path)  # raises NoNodeError
            if req.watch:
                self.data_watches.setdefault(req.path, set()).add(src)
            return Reply((data, stat), size=p.resp_base_size + len(data))
        if req.op == "children":
            names = self.store.get_children(req.path)
            if req.watch:
                self.child_watches.setdefault(req.path, set()).add(src)
            size = p.resp_base_size + sum(len(n) + 4 for n in names)
            return Reply(names, size=size)
        if req.op == "resolve":
            reply = yield from self._h_resolve(src, req)
            return reply
        raise ZKError(req.path, f"unknown read op {req.op!r}")

    def _h_resolve(self, src: str, req: ReadRequest) -> Generator:
        """Whole-path lookup in one RPC: walk the ancestor chain against
        the server-side dentry cache, charging ``resolve_component_cpu``
        only for components not already verified, then read the target
        znode. Never raises NoNodeError — a broken chain or missing target
        comes back as a ``miss`` ResolveResult carrying the nearest
        existing ancestor, so the client can classify the error and
        negative-cache the gap without extra round trips."""
        p = self.params
        bus = self.svc.bus
        self.stats["resolves"] += 1
        path = req.path
        misses = 0
        nearest = "/"          # nearest *existing* ancestor seen so far
        broken = False         # an intermediate component is missing
        for anc in ancestors(path):
            if anc in self._dentries:
                self._dentries.move_to_end(anc)
                self.stats["dentry_hits"] += 1
                bus.mark("zk", self.endpoint, "dentry_hit", self.sim.now)
                nearest = anc
                continue
            self.stats["dentry_misses"] += 1
            bus.mark("zk", self.endpoint, "dentry_miss", self.sim.now)
            misses += 1
            if self.store.exists(anc) is None:
                broken = True
                break
            self._dentry_insert(anc)
            nearest = anc
        if misses:
            yield from self.node.cpu_work(p.resolve_component_cpu * misses)
        if not broken:
            try:
                data, stat = self.store.get(path)
            except NoNodeError:
                pass
            else:
                if req.watch:
                    self.data_watches.setdefault(path, set()).add(src)
                res = ResolveResult("ok", path, data=data, stat=stat,
                                    ancestor=nearest)
                return Reply(res, size=p.resp_base_size + len(data))
        anc_data = b""
        if nearest != "/":
            anc_data, _ = self.store.get(nearest)
        res = ResolveResult("miss", path, ancestor=nearest,
                            ancestor_data=anc_data)
        return Reply(res, size=p.resp_base_size + len(anc_data))

    def _dentry_insert(self, path: str) -> None:
        self._dentries[path] = None
        self._dentries.move_to_end(path)
        while len(self._dentries) > DENTRY_CACHE_CAPACITY:
            self._dentries.popitem(last=False)

    def _h_write(self, src: str, req: WriteRequest) -> Generator:
        if self.route_guard is not None:
            self.route_guard(req)
        if (self.params.session_tracking and req.op == "create"
                and req.ephemeral and req.session
                and req.session not in self.sessions):
            # The owning session is gone (expired, or established on
            # another server): the real server refuses rather than create
            # an unreclaimable ephemeral. Clients reconnect and retry.
            raise SessionExpiredError(
                req.path, msg=f"session {req.session:#x} unknown at "
                              f"zk{self.sid}")
        result = yield from self._route_write(req)
        return result

    def _route_write(self, req: WriteRequest) -> Generator:
        if self.role == LEADING:
            result = yield from self._process_write(req)
            return result
        if self.role == FOLLOWING and self.leader_sid is not None:
            self.stats["forwards"] += 1
            yield from self.node.cpu_work(self.params.forward_cpu)
            lead = self.leader_sid  # may have changed while queued
            if self.role != FOLLOWING or lead is None:
                raise ConnectionLossError(
                    msg=f"zk{self.sid} lost its leader while forwarding")
            zxid, result = yield from self.agent.call(
                self.peers[lead], "fwd_write", req,
                size=self._req_size(req), timeout=5.0)
            # Read-your-writes (the ZooKeeper session guarantee): the
            # client's next read lands on *this* replica, so don't
            # acknowledge the write until it is applied here. The
            # leader's reply can beat the COMMIT broadcast when the
            # pipeline queues — answering early lets a create..stat pair
            # on the same session miss its own file. A membership change
            # voids the session binding, so stop holding the ack then.
            yield from self._hold(zxid, True)
            return result
        raise ConnectionLossError(msg=f"zk{self.sid} has no leader")

    def _h_commit_index(self, src: str, args: Any) -> Generator:
        if self.role != LEADING:
            raise NotLeaderError(msg=f"zk{self.sid} is not the leader")
        yield from self.node.cpu_work(self.params.forward_cpu)
        return self._pipeline_horizon()

    def _pipeline_horizon(self) -> int:
        """The zxid a sync must wait for: the newest *sequenced* write,
        committed or not. A write is durable-in-order the moment its zxid
        is assigned, so a barrier that stopped at ``commit_index`` would
        run ahead of proposals still collecting acks."""
        return max(self.outstanding) if self.outstanding \
            else self.commit_index

    def _h_sync(self, src: str, path: str) -> Generator:
        """Flush the leader pipeline to this replica (zoo_sync): after it
        returns, this server has applied every write committed before the
        sync was issued."""
        yield from self.node.cpu_work(self.params.forward_cpu)
        if self.role == LOOKING:
            raise ConnectionLossError(msg=f"zk{self.sid} is electing")
        if self.role == LEADING:
            horizon = self._pipeline_horizon()
        else:
            horizon = yield from self.agent.call(
                self.peers[self.leader_sid], "commit_index", None,
                timeout=5.0)
        yield from self._hold(horizon, False)
        return self.commit_index

    def _hold(self, zxid: int, bound: bool) -> Generator:
        """Return once this replica has applied ``zxid`` or, ``bound``,
        has stopped following: at once if it already has, else at the
        first ``log_delay`` tick after it happens, on a grid counted from
        now (MODEL.md §12, cut 5).

        The hold is parked, not polled. It takes one creation id, the one
        the first poll timeout would have taken, and keeps it:
        ``_release_holds`` fires it under that id, and if its condition
        has flipped back by the tick it parks again under the same id.
        So holds that share a grid fire in the order they first parked,
        at every tick."""
        sim = self.sim
        eid = 0
        while self.commit_index < zxid and (
                not bound or self.role == FOLLOWING):
            if not eid:
                sim._eid = eid = sim._eid + 1
            hold = _Hold(sim)
            hold.at = sim.now
            hold.bound = bound
            insort(self._holds, (zxid, eid, hold))
            yield hold

    def _release_holds(self) -> None:
        """Fire every parked hold that can now pass, at the first tick
        of its own grid strictly after now. Called wherever a hold's
        condition can turn true: ``commit_index`` rises (the applier,
        ``follow``, ``become_leader``) or the role leaves FOLLOWING
        (``start_election``)."""
        holds = self._holds
        applied = self.commit_index
        if self.role == FOLLOWING:
            n = 0
            for zxid, _, _ in holds:    # sorted: a prefix passes
                if zxid > applied:
                    break
                n += 1
            due = holds[:n]
            del holds[:n]
        else:   # off FOLLOWING, every write's hold passes too
            due = [e for e in holds if e[0] <= applied or e[2].bound]
            self._holds = [e for e in holds if e not in due]
        sim = self.sim
        now = sim.now
        delay = self.params.log_delay
        for _, eid, hold in due:
            at = hold.at
            while at <= now:    # accumulated, as chained timeouts were
                at += delay
            sim.stage(hold, at, eid)

    def _h_fwd_write(self, src: str, req: WriteRequest) -> Generator:
        """Leader side of follower forwarding. Replies ``(zxid, result)``
        so the follower can hold its client's ack until the commit is
        applied locally (see ``_route_write``)."""
        if self.role != LEADING:
            raise NotLeaderError(msg=f"zk{self.sid} is not the leader")
        result = yield from self._process_write(req, with_zxid=True)
        return result

    def _req_size(self, req: WriteRequest) -> int:
        base = self.params.req_base_size + len(req.path) + len(req.data)
        for sub in req.ops:
            base += len(sub.path) + len(sub.data) + 16
        return base

    # ------------------------------------------------------------------
    # leader write pipeline
    # ------------------------------------------------------------------
    def _validate(self, req: WriteRequest) -> Tuple[tuple, Any]:
        """Validate against the speculative tree; return (txn, client result).

        Must run without yielding so validation+speculative-apply is atomic
        with zxid assignment.
        """
        spec = self.spec_store
        if req.op == "create":
            eph = req.session if req.ephemeral else 0
            path = spec.check_create(req.path, eph, req.sequential)
            return ("create", path, req.data, eph, req.sequential), path
        if req.op == "delete":
            spec.check_delete(req.path, req.version)
            return ("delete", req.path), True
        if req.op == "set":
            spec.check_set_data(req.path, req.version)
            return ("set", req.path, req.data), True
        if req.op == "multi":
            subs, results = self._validate_multi(req)
            return ("multi", tuple(subs)), results
        raise ZKError(req.path, f"unknown write op {req.op!r}")

    def _validate_multi(self, req: WriteRequest) -> Tuple[List[tuple], List[Any]]:
        """Validate a multi against spec + an overlay of earlier sub-ops.

        The spec tree is never mutated here (the whole multi is applied
        once, atomically, on commit), so a failed validation needs no
        rollback. Sequential creates inside a multi are not supported
        (DUFS never needs them).
        """
        spec = self.spec_store
        created: set = set()
        deleted: set = set()

        def alive(path: str) -> bool:
            if path in created:
                return True
            if path in deleted:
                return False
            return spec.exists(path) is not None

        def has_children(path: str) -> bool:
            try:
                names = spec.get_children(path)
            except NoNodeError:
                names = []
            prefix = path if path != "/" else ""
            for name in names:
                if f"{prefix}/{name}" not in deleted:
                    return True
            return any(c.startswith(f"{prefix}/")
                       and "/" not in c[len(prefix) + 1:] for c in created)

        subs: List[tuple] = []
        results: List[Any] = []
        for sub in req.ops:
            if sub.op == "check":
                if not alive(sub.path):
                    raise NoNodeError(sub.path)
                if sub.path not in created and sub.path not in deleted:
                    spec.check_version(sub.path, sub.version)
                continue
            if sub.op == "create":
                if sub.sequential:
                    raise BadArgumentsError(sub.path,
                                            "sequential create in multi")
                validate_path(sub.path)
                parent, name = split_path(sub.path)
                if not name or not alive(parent):
                    raise NoNodeError(sub.path)
                if alive(sub.path):
                    raise NodeExistsError(sub.path)
                created.add(sub.path)
                deleted.discard(sub.path)
                eph = sub.session if sub.ephemeral else 0
                subs.append(("create", sub.path, sub.data, eph, False))
                results.append(sub.path)
            elif sub.op == "delete":
                if not alive(sub.path):
                    raise NoNodeError(sub.path)
                if has_children(sub.path):
                    raise NotEmptyError(sub.path)
                if sub.path not in created:
                    spec.check_version(sub.path, sub.version)
                deleted.add(sub.path)
                created.discard(sub.path)
                subs.append(("delete", sub.path))
                results.append(True)
            elif sub.op == "set":
                if not alive(sub.path):
                    raise NoNodeError(sub.path)
                if sub.path not in created:
                    spec.check_set_data(sub.path, sub.version)
                subs.append(("set", sub.path, sub.data))
                results.append(True)
            else:
                raise ZKError(sub.path, f"bad multi op {sub.op!r}")
        return subs, results

    def _next_zxid(self) -> int:
        self.zxid_counter += 1
        return (self.epoch << 32) | self.zxid_counter

    def _process_write(self, req: WriteRequest,
                       with_zxid: bool = False) -> Generator:
        if not self.activated:
            raise ConnectionLossError(msg=f"zk{self.sid} leader not activated")
        p = self.params
        batching = p.propose_batch_max > 1
        nf = len(self.active_followers)
        extra = (p.set_extra_cpu if req.op == "set"
                 else p.delete_extra_cpu if req.op == "delete" else 0.0)
        n_obs = len(self.active_observers)
        if batching:
            # Per-follower marshalling is paid once per *batch* by the
            # proposer pipeline; the request only pays its own validation.
            yield from self.node.cpu_work(p.write_leader_cpu + extra)
        else:
            yield from self.node.cpu_work(
                p.write_leader_cpu + extra + nf * p.write_per_follower_cpu
                + n_obs * p.write_per_follower_cpu * 0.5)
        if self.role != LEADING:  # demoted while queued for CPU
            raise NotLeaderError(msg=f"zk{self.sid} lost leadership")
        if self.route_guard is not None:
            # Re-check at the sequencing point: the admission-time check
            # ran before this request queued for the leader's CPU, and
            # the elastic plane may have frozen or re-routed the subtree
            # while it waited. Bouncing here (atomically with zxid
            # assignment) is what makes a migration freeze airtight — no
            # write under a frozen root can ever be sequenced after it.
            self.route_guard(req)
        # ---- atomic section: validate + speculative apply + sequence ----
        txn, result = self._validate(req)  # raises ZKError to caller
        zxid = self._next_zxid()
        self.spec_store.apply(txn, zxid, self.sim.now)
        self.log.append((zxid, txn))
        out = _Outstanding(txn=txn, result=result, done=self.sim.event())
        self.outstanding[zxid] = out
        self.out_queue.append(zxid)
        self.stats["writes"] += 1
        self.stats["proposals"] += 1
        if batching:
            self._proposer.submit((zxid, txn, self._req_size(req)))
        else:
            prop = Propose(zxid, txn, self.epoch)
            psize = p.proposal_base_size + self._req_size(req)
            for sid in self.active_followers:
                self._cast_peer(sid, "propose", prop, size=psize)
            for sid in self.active_observers:
                # INFORM stream: observers replicate without acking; the
                # leader pays a smaller marshalling cost for them.
                self._cast_peer(sid, "propose", prop, size=psize)
            # self-ack goes through the group-committed logger
            self._logger.submit(("self_ack", zxid))
        yield out.done
        return (zxid, result) if with_zxid else result

    def _flush_proposals(self, batch: List[tuple]) -> Generator:
        """Proposer pipeline flush (``propose_batch_max > 1``): stream one
        marshalled PROPOSE batch per follower, then self-ack every txn."""
        p = self.params
        if self.role != LEADING:
            return  # demoted: outstanding entries were failed by step-down
        nf = len(self.active_followers)
        n_obs = len(self.active_observers)
        yield from self.node.cpu_work(
            (nf + 0.5 * n_obs) * p.write_per_follower_cpu)
        if self.role != LEADING:
            return
        pb = ProposeBatch(tuple(Propose(z, txn, self.epoch)
                                for z, txn, _ in batch))
        size = p.proposal_base_size + sum(s for _, _, s in batch)
        for sid in self.active_followers:
            self._cast_peer(sid, "propose_batch", pb, size=size)
        for sid in self.active_observers:
            self._cast_peer(sid, "propose_batch", pb, size=size)
        for z, _, _ in batch:
            self._logger.submit(("self_ack", z))

    # ------------------------------------------------------------------
    # logger pipeline (leader self-acks; follower log+ACK) — group commit
    # ------------------------------------------------------------------
    def _flush_log(self, batch: List[tuple]) -> Generator:
        p = self.params
        follower_items = [b for b in batch if b[0] == "log"]
        if follower_items:
            yield from self.node.cpu_work(
                p.follower_log_cpu * len(follower_items))
        yield self.sim.timeout(p.log_delay)  # one fsync for the batch
        ack_zxids = []
        for item in batch:
            if item[0] == "self_ack":
                self._on_ack(self.sid, item[1])
            else:  # ("log", zxid, txn, leader_sid)
                _, zxid, txn, leader_sid = item
                self.log.append((zxid, txn))
                ack_zxids.append((leader_sid, zxid))
        if ack_zxids:
            if not self.observer:
                leader_sid = ack_zxids[0][0]
                self._cast_peer(
                    leader_sid, "ack",
                    Ack(tuple(z for _, z in ack_zxids), self.sid))
            # Commits may now be applicable — on a follower only if one
            # is pending; otherwise the wake-up would find nothing.
            if self.role != FOLLOWING \
                    or self.pending_commit > self.commit_index:
                self._kick_applier()

    # ------------------------------------------------------------------
    # ZAB casts
    # ------------------------------------------------------------------
    def _f_propose(self, src: str, prop: Propose) -> None:
        if self._syncing:
            # Mid-sync: the leader already counts us as active, so buffer
            # proposals until the sync response is applied (they are FIFO
            # behind it on the wire, but our coroutine applies it late).
            self._presync.append(prop)
            return
        if self.role != FOLLOWING or prop.epoch != self.epoch:
            return  # stale leader
        if prop.zxid <= self._accepted_zxid:
            return  # duplicate (logged, or queued/batched for the fsync)
        if self.log and prop.zxid <= self.log[-1][0]:
            return  # duplicate (already logged)
        if self._gap_before(prop.zxid):
            # A proposal was lost on the wire: logging past the hole and
            # later applying commits across it would silently diverge from
            # the leader at the same commit index. Buffer this proposal and
            # re-sync our log from the leader instead.
            self.stats["gap_resyncs"] += 1
            begin_sync(self, self.leader_sid)
            self._presync.append(prop)
            return
        self._accepted_zxid = prop.zxid
        self._logger.submit(("log", prop.zxid, prop.txn, self.leader_sid))

    def _f_propose_batch(self, src: str, pb: ProposeBatch) -> None:
        """A leader-side write batch: contained proposals are processed in
        order exactly as if they had arrived individually."""
        for prop in pb.props:
            self._f_propose(src, prop)

    def _gap_before(self, zxid: int) -> bool:
        """True if accepting ``zxid`` would leave a hole in the log.

        Proposals within an epoch carry consecutive zxid counters; the
        predecessor of ``zxid`` must already have been accepted into the
        pipeline (``_accepted_zxid`` — the log, the fsync queue, or the
        in-flight fsync batch) or be the checkpoint horizon when the
        replayed log prefix was truncated."""
        last = self._accepted_zxid or self._snapshot_zxid
        if not last:
            # Fresh, empty log: the first proposal of an epoch is counter 1.
            return (zxid & 0xFFFFFFFF) != 1
        if (zxid >> 32) != (last >> 32):
            # First proposal we see of a new epoch; any committed
            # predecessors arrived via the post-election sync.
            return (zxid & 0xFFFFFFFF) != 1
        return zxid != last + 1

    def _f_ack(self, src: str, ack: Ack) -> None:
        if self.role != LEADING:
            return
        for zxid in ack.zxid if isinstance(ack.zxid, tuple) else (ack.zxid,):
            out = self.outstanding.get(zxid)
            if out is None:
                continue
            out.acks.add(ack.sid)
            if not out.ready and len(out.acks) >= self.quorum:
                out.ready = True
        self._advance_commit()

    def _on_ack(self, sid: int, zxid: int) -> None:
        out = self.outstanding.get(zxid)
        if out is None:
            return
        out.acks.add(sid)
        if not out.ready and len(out.acks) >= self.quorum:
            out.ready = True
        self._advance_commit()

    def _advance_commit(self) -> None:
        """Commit ready proposals strictly in zxid order."""
        advanced = False
        while self.out_queue:
            zxid = self.out_queue[0]
            out = self.outstanding.get(zxid)
            if out is None or not out.ready:
                break
            self.out_queue.popleft()
            advanced = True
        if advanced:
            self._kick_applier()

    def _f_commit(self, src: str, commit: Commit) -> None:
        if self._syncing:
            # Nothing is applied between choosing a leader and applying
            # its sync response: replayed behind it, in arrival order.
            self._presync.append(commit)
            return
        if self.role != FOLLOWING:
            return
        if commit.zxid > self.pending_commit:
            self.pending_commit = commit.zxid
            self._kick_applier()

    # ------------------------------------------------------------------
    # applier pipeline: apply committed txns to the local tree, in order
    # ------------------------------------------------------------------
    def _kick_applier(self) -> None:
        """Wake the applier on its idle -> busy edge only (it re-tests
        ``_applicable()`` after every run, like ``Batcher.submit``)."""
        if self._applier_idle:
            self._applier_idle = False
            self._apply_kick.put(True)

    def _applier_loop(self) -> Generator:
        p = self.params
        try:
            while True:
                yield self._apply_kick.get()
                while True:
                    todo = self._applicable()
                    if not todo:
                        self._applier_idle = True
                        break
                    yield from self.node.cpu_work(p.apply_cpu * len(todo))
                    for zxid, txn in todo:
                        self.store.apply(txn, zxid, self.sim.now)
                        self.commit_index = zxid
                        self.stats["commits"] += 1
                        self._invalidate_dentries(txn)
                        self._fire_watches(txn)
                        if self.role == LEADING:
                            out = self.outstanding.pop(zxid, None)
                            if out is not None and not out.done.triggered:
                                out.done.succeed(out.result)
                    if self._holds:
                        self._release_holds()
                    if self.role == LEADING:
                        commit = Commit(todo[-1][0])
                        for sid in (self.active_followers
                                    | self.active_observers):
                            self._cast_peer(sid, "commit", commit, size=48)
        except Interrupt:
            return

    def _applicable(self) -> List[Tuple[int, tuple]]:
        """Next run of committed-but-unapplied log entries."""
        if not self.log or self.log[-1][0] <= self.commit_index:
            return []
        if self.role == LEADING:
            # Committed = contiguous ready prefix removed from out_queue.
            horizon = self.out_queue[0] if self.out_queue else None
            todo = []
            for zxid, txn in self._log_tail(self.commit_index):
                if horizon is not None and zxid >= horizon:
                    break
                if zxid in self.outstanding and not self.outstanding[zxid].ready:
                    break
                todo.append((zxid, txn))
            return todo
        upto = self.pending_commit
        if self.role == FOLLOWING and upto > self.commit_index:
            return [(z, t) for z, t in self._log_tail(self.commit_index)
                    if z <= upto]
        return []

    def _log_tail(self, after_zxid: int) -> List[Tuple[int, tuple]]:
        # log is zxid-ordered; binary search would be faster but tails are
        # short in steady state.
        log = self.log
        i = len(log)
        while i and log[i - 1][0] > after_zxid:
            i -= 1
        return log[i:]

    def _invalidate_dentries(self, txn: tuple) -> None:
        """Drop dentry entries made stale by a committed txn. Deletes are
        validated leaf-only (a non-empty znode can't be deleted), so any
        cached descendant was already purged by its own delete txn — the
        exact-path pop is sufficient. Creates and sets don't change the
        existence of any cached path."""
        kind = txn[0]
        if kind == "multi":
            for sub in txn[1]:
                self._invalidate_dentries(sub)
        elif kind == "delete":
            self._dentries.pop(txn[1], None)

    # ------------------------------------------------------------------
    # watches
    # ------------------------------------------------------------------
    def _fire_watches(self, txn: tuple) -> None:
        if not (self.data_watches or self.child_watches
                or self.exist_watches):
            return
        kind = txn[0]
        if kind == "multi":
            for sub in txn[1]:
                self._fire_watches(sub)
            return
        path = txn[1]
        parent, _ = split_path(path)
        if kind == "create":
            self._notify(self.exist_watches, path, "created")
            self._notify(self.child_watches, parent, "child")
        elif kind == "delete":
            self._notify(self.data_watches, path, "deleted")
            self._notify(self.exist_watches, path, "deleted")
            self._notify(self.child_watches, parent, "child")
            self._notify(self.child_watches, path, "deleted")
        elif kind == "set":
            self._notify(self.data_watches, path, "changed")

    def _notify(self, table: Dict[str, Set[str]], path: str,
                kind: str) -> None:
        watchers = table.pop(path, None)
        if not watchers:
            return
        event = WatchEvent(kind, path)
        for client in watchers:
            self.agent.cast(client, "watch_event", event, size=64)

    # ------------------------------------------------------------------
    # sync of (re)joining followers
    # ------------------------------------------------------------------
    def _h_follower_info(self, src: str, info: FollowerInfo) -> Generator:
        if self.role != LEADING:
            raise NotLeaderError(msg=f"zk{self.sid} is not leading")
        yield from self.node.cpu_work(self.params.session_cpu)
        if self.role != LEADING:
            raise NotLeaderError(msg=f"zk{self.sid} lost leadership")
        # ---- atomic: snapshot log tail + activate the follower ----------
        my_zxids = [z for z, _ in self.log]
        common = 0
        for a, b in zip(my_zxids, info.last_zxid):
            if a == b:
                common += 1
            else:
                break
        entries = tuple(self.log[common:])
        truncate_to = my_zxids[common - 1] if common else 0
        snapshot = None
        snapshot_zxid = 0
        if common == 0 and self._snapshot_zxid > 0:
            # Our log was checkpoint-truncated and shares no prefix with the
            # follower's: ship the snapshot the log now starts from.
            snapshot = self._snapshot
            snapshot_zxid = self._snapshot_zxid
        if info.observer:
            self.active_observers.add(info.sid)
        else:
            self.active_followers.add(info.sid)
            if len(self.active_followers) + 1 >= self.quorum:
                self.activated = True
        resp = SyncResponse(self.epoch, truncate_to, entries,
                            self.commit_index, snapshot, snapshot_zxid)
        size = 160 + 64 * len(entries) + (128 * len(snapshot) if snapshot else 0)
        return Reply(resp, size=size)

    # ------------------------------------------------------------------
    # heartbeats & failure detection (reliability experiments only)
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> Generator:
        p = self.params
        while True:
            try:
                yield self.sim.timeout(p.ping_interval)
            except Interrupt:
                return
            if self.role == LEADING:
                for sid in self.followers():
                    self._cast_peer(sid, "ping", Ping(self.sid, self.epoch), size=32)

    def _f_ping(self, src: str, ping: Ping) -> None:
        if ping.epoch >= self.epoch and self.role == FOLLOWING:
            self.last_ping_at = self.sim.now
            self._cast_peer(ping.sid, "pong", Pong(self.sid), size=32)
        elif ping.epoch > self.epoch and self.role == LOOKING:
            self.last_ping_at = self.sim.now

    def _f_pong(self, src: str, pong: Pong) -> None:
        self.last_pong_at[pong.sid] = self.sim.now

    def _watchdog_loop(self) -> Generator:
        p = self.params
        while True:
            try:
                yield self.sim.timeout(p.ping_timeout / 2)
            except Interrupt:
                return
            now = self.sim.now
            if self.role == FOLLOWING:
                if now - self.last_ping_at > p.ping_timeout:
                    start_election(self)
            elif self.role == LEADING:
                alive = sum(1 for sid in self.active_followers
                            if now - self.last_pong_at.get(sid, 0.0)
                            <= p.ping_timeout)
                if alive + 1 < self.quorum and now > p.ping_timeout:
                    start_election(self)    # steps down first

    def _step_down(self) -> None:
        self.role = LOOKING
        self.activated = False
        self.active_followers.clear()
        for zxid, out in list(self.outstanding.items()):
            if not out.done.triggered:
                out.done.fail(ConnectionLossError(
                    msg=f"zk{self.sid} lost leadership"))
                out.done._used = True
        self.outstanding.clear()
        self.out_queue.clear()

    def _f_vote(self, src: str, vote: Vote) -> None:
        on_vote(self, vote)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def _checkpoint_loop(self) -> Generator:
        try:
            while True:
                yield self.sim.timeout(self.params.checkpoint_interval)
                if self.role != LOOKING:
                    yield from self.node.cpu_work(
                        self.params.apply_cpu * max(1, len(self.store) // 64))
                    self.checkpoint()
        except Interrupt:
            return

    def checkpoint(self) -> None:
        """Snapshot the committed tree and truncate the replayed log prefix
        (the paper notes ZooKeeper 'periodically checkpoints on disk')."""
        self._snapshot = self.store.snapshot()
        self._snapshot_zxid = self.commit_index
        self.log = [(z, t) for z, t in self.log if z > self.commit_index]

    def _on_crash(self) -> None:
        # Volatile state is lost; durable log/snapshot/promised_epoch stay.
        self.role = LOOKING
        self.activated = False
        self.leader_sid = None
        self.outstanding.clear()
        self.out_queue.clear()
        self.active_followers.clear()
        self.active_observers.clear()
        self.sessions.clear()
        self._dentries.clear()
        self.data_watches.clear()
        self.child_watches.clear()
        self.exist_watches.clear()
        self._logger.clear()
        if self._proposer is not None:
            self._proposer.clear()
        self._votes.clear()
        self._holds.clear()      # their holders died with the node
        # Accepted-but-unfsynced proposals died with the logger pipeline.
        self._accepted_zxid = self.log[-1][0] if self.log \
            else self._snapshot_zxid

    def _rebuild_from_disk(self) -> None:
        if self._snapshot is not None:
            self.store = ZnodeStore.from_snapshot(self._snapshot)
        else:
            self.store = ZnodeStore()
        self.commit_index = self._snapshot_zxid
        self.pending_commit = self.commit_index
        # Conservative: everything logged before the crash may have been
        # committed; ZAB resolves actual commit point during sync/election.

    def _on_recover(self) -> None:
        self._apply_kick = Store(self.sim)
        self._applier_idle = True
        self._rebuild_from_disk()
        self._start_pipelines()
        if self.params.failure_detection:
            start_election(self)
        else:
            assert self.static_leader is not None and \
                self.static_leader != self.sid, \
                "static-role mode cannot recover the leader"
            self.node.spawn(self._rejoin_static(), f"zk{self.sid}.rejoin")

    def _rejoin_static(self) -> Generator:
        yield self.sim.timeout(0)
        yield from follow(self, self.static_leader)
