"""One ZooKeeper server: ZAB write pipeline, local reads, watches.

Roles follow the real system: a single **leader** sequences all writes
(validate against a speculative tree → assign zxid → stream PROPOSE to
followers → collect quorum ACKs → COMMIT), while **followers** serve reads
from their committed tree and forward writes to the leader. Txn logging is
group-committed: a batch of proposals shares one fsync, which is what lets
the real server sustain thousands of writes per second through a
millisecond-latency disk.

Durable state (survives :meth:`Node.crash`): the txn log and the
promised epoch. Everything else is volatile and rebuilt on recovery by
log replay.

Every role transition — static boot, leader election, the recovery sync,
heartbeats, crash and recovery — is :class:`~repro.zk.election.Membership`,
which ``ZKServer`` inherits; this module is the data path those roles run.
Throughput experiments use a statically assigned leader and no failure
detection, matching the paper's healthy-cluster runs.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..core.paths import ancestors
from ..models.params import ZKParams
from ..sim.core import Event, Interrupt
from ..sim.node import Node
from ..sim.resources import Store
from ..sim.rpc import Reply, _Cast
from ..svc import Batcher, Service, TraceBus
from .data import ZnodeStore, split_path
from .election import FOLLOWING, LEADING, LOOKING, Membership
from .errors import (
    ConnectionLossError,
    NoNodeError,
    NotLeaderError,
    ZKError,
)
from .protocol import (Ack, Commit, Propose, ReadRequest,
                       ResolveResult, WatchEvent, WriteRequest)

#: Resolved prefixes each server's dentry cache remembers (LRU).
DENTRY_CACHE_CAPACITY = 65536


@dataclass
class _Outstanding:
    txn: tuple
    result: Any
    done: Event
    acks: Set[int] = field(default_factory=set)


#: The sort key of ``ZKServer._holds``: a hold's zxid.
_ZXID = itemgetter(0)


class ZKServer(Membership):
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

        # commit point: the leader's quorum-acked prefix, a follower's
        # highest Commit seen; applied up to it, in order
        self.pending_commit = 0

        # follower-only
        self._accepted_zxid = 0                   # highest zxid accepted into
                                                  # the log pipeline
        # while syncing: proposals and commits buffered behind the response
        self._presync: Optional[List[Any]] = None
        self._term = 0      # bumped by each decision and each tree rebuild

        # Parked read-your-writes holds by zxid: (zxid, reserved id, hold).
        self._holds: List[Tuple[int, int, Event]] = []

        # server-side dentry cache (volatile): paths whose *existence* was
        # verified during a ``resolve`` walk. Entries carry no data — znode
        # payloads are always read from the committed tree — so a cached
        # entry only ever goes stale through deletion, which the applier
        # invalidates txn-by-txn. LRU-bounded by ``DENTRY_CACHE_CAPACITY``.
        self._dentries: "OrderedDict[str, None]" = OrderedDict()

        # watches
        self.data_watches: Dict[str, Set[str]] = {}
        self.child_watches: Dict[str, Set[str]] = {}

        # liveness (failure detection mode)
        self.last_ping_at = 0.0
        self.last_pong_at: Dict[int, float] = {}
        self.election_round = 0
        self._votes: Dict[int, Tuple[int, int]] = {}
        self._my_vote: Tuple[int, int] = (0, 0)
        self._ticker_running = False   # one election ticker at a time

        # pipelines (group-commit logger; applier)
        self._apply_kick = Store(self.sim)
        self._applier_idle = True
        self._logger: Optional[Batcher] = None

        # counters: perfbench reads elections, resolve_bench the rest
        self.stats = {"elections": 0, "resolves": 0, "dentry_hits": 0,
                      "dentry_misses": 0}

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
        s.expose("follower_info", self._h_follower_info)
        s.expose_fast("propose", self._f_propose)
        s.expose_fast("ack", self._f_ack)
        s.expose_fast("commit", self._f_commit)
        s.expose_fast("ping", self._f_ping)
        s.expose_fast("pong", self._f_pong)
        s.expose_fast("vote", self._f_vote)

    def _start_pipelines(self) -> None:
        if self._logger is None:
            self._logger = Batcher(self.node, f"zk{self.sid}.logger",
                                   self._flush_log,
                                   max_batch=self.params.log_batch_max,
                                   bus=self.svc.bus, deployment="zk")
        else:
            self._logger.restart()
        self.node.spawn(self._applier_loop(), f"zk{self.sid}.applier")
        if self.params.failure_detection:
            self.node.spawn(self._heartbeat_loop(), f"zk{self.sid}.heartbeat")
            self.node.spawn(self._watchdog_loop(), f"zk{self.sid}.watchdog")

    @property
    def last_logged_zxid(self) -> int:
        return self.log[-1][0] if self.log else 0

    def followers(self) -> List[int]:
        return [sid for sid in self.peers if sid != self.sid]

    def _cast_peer(self, sid: int, method: str, args: Any, size: int = 160) -> None:
        # agent.cast, minus its frame (7 followers x 3 casts per write)
        self.agent.network.send(self.endpoint, self.peers[sid],
                                _Cast(method, args, self.endpoint), size)

    # ------------------------------------------------------------------
    # client-facing handlers
    # ------------------------------------------------------------------
    def _h_read(self, src: str, req: ReadRequest) -> Generator:
        yield from self.node.cpu_work(self.params.read_cpu)
        if self.role == LOOKING:
            raise ConnectionLossError(msg=f"zk{self.sid} is electing")
        if self.route_guard is not None:
            self.route_guard(req)
        p = self.params
        if req.op == "exists":
            stat = self.store.exists(req.path)
            if req.watch:
                self.data_watches.setdefault(req.path, set()).add(src)
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
            return (yield from self._h_resolve(src, req))
        raise ZKError(req.path, f"unknown read op {req.op!r}")

    def _h_resolve(self, src: str, req: ReadRequest) -> Generator:
        """Whole-path lookup in one RPC: walk the ancestor chain against
        the server-side dentry cache, charging ``resolve_component_cpu``
        only for components not already verified, then read the target
        znode. Never raises NoNodeError — a broken chain or missing target
        comes back as a ``miss`` ResolveResult carrying the nearest
        existing ancestor, so the client can classify the error without
        extra round trips."""
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
        return (yield from self._route_write(req))

    def _route_write(self, req: WriteRequest) -> Generator:
        if self.role == LEADING:
            return (yield from self._process_write(req))
        if self.role == FOLLOWING and self.leader_sid is not None:
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
            # from the same client miss its own file. A membership change
            # voids the client's binding, so stop holding the ack then.
            yield from self._hold(zxid)
            return result
        raise ConnectionLossError(msg=f"zk{self.sid} has no leader")

    def _hold(self, zxid: int) -> Generator:
        """Return once this replica has applied ``zxid`` or has stopped
        following: at once if it already has, else at the instant it
        happens, as ZooKeeper answers on apply (MODEL.md §12, cut 5)."""
        sim = self.sim
        while self.commit_index < zxid and self.role == FOLLOWING:
            sim._eid = eid = sim._eid + 1
            hold = Event(sim)
            insort(self._holds, (zxid, eid, hold), key=_ZXID)
            yield hold

    def _release_holds(self) -> None:
        """Fire every parked hold that can now pass, at this instant and
        under the creation id it reserved as it parked: ahead of the work
        queued since. Called wherever a hold's condition can turn true:
        ``commit_index`` rises (the applier, ``_rebuild_from_disk``) or
        the role leaves FOLLOWING (``start_election``)."""
        holds = self._holds
        n = bisect_right(holds, self.commit_index, key=_ZXID) \
            if self.role == FOLLOWING else len(holds)
        for _, eid, hold in holds[:n]:
            self.sim.stage(hold, self.sim.now, eid)
        del holds[:n]

    def _h_fwd_write(self, src: str, req: WriteRequest) -> Generator:
        """Leader side of follower forwarding. Replies ``(zxid, result)``
        so the follower can hold its client's ack until the commit is
        applied locally (see ``_route_write``)."""
        if self.role != LEADING:
            raise NotLeaderError(msg=f"zk{self.sid} is not the leader")
        return (yield from self._process_write(req, with_zxid=True))

    def _req_size(self, req: WriteRequest) -> int:
        base = self.params.req_base_size + len(req.path) + len(req.data)
        for sub in req.ops:
            base += len(sub.path) + len(sub.data) + 16
        return base

    # ------------------------------------------------------------------
    # leader write pipeline
    # ------------------------------------------------------------------
    def _validate(self, req: WriteRequest) -> Tuple[tuple, Any]:
        """Check one create, delete or set against the speculative tree;
        return (txn, client result)."""
        spec = self.spec_store
        if req.op == "create":
            spec.check_create(req.path)
            return ("create", req.path, req.data), req.path
        if req.op == "delete":
            spec.check_delete(req.path, req.version)
            return ("delete", req.path), True
        if req.op == "set":
            spec.check_set_data(req.path, req.version)
            return ("set", req.path, req.data), True
        raise ZKError(req.path, f"unknown write op {req.op!r}")

    def _speculate(self, req: WriteRequest, zxid: int) -> Tuple[tuple, Any]:
        """Validate ``req`` and apply it to the speculative tree under
        ``zxid``; return (txn, client result). A multi's sub-ops go
        through ``_validate`` in order, each applied before the next is
        checked; if one is refused, the tree is rebuilt without them.

        Must run without yielding so validation+speculative-apply is atomic
        with zxid assignment.
        """
        spec, now = self.spec_store, self.sim.now
        if req.op != "multi":
            txn, result = self._validate(req)
            spec.apply(txn, zxid, now)
            return txn, result
        subs: List[tuple] = []
        results: List[Any] = []
        try:
            for sub in req.ops:
                txn, result = self._validate(sub)
                spec.apply(txn, zxid, now)
                subs.append(txn)
                results.append(result)
        except ZKError:
            if subs:
                self._rebuild_spec()
            raise
        return ("multi", tuple(subs)), results

    def _rebuild_spec(self) -> None:
        """Speculative tree = committed tree + every sequenced txn."""
        spec = ZnodeStore.from_snapshot(self.store.snapshot())
        for zxid, txn in self._log_tail(self.commit_index):
            spec.apply(txn, zxid, self.sim.now)
        self.spec_store = spec

    def _process_write(self, req: WriteRequest,
                       with_zxid: bool = False) -> Generator:
        if not self.activated:
            raise ConnectionLossError(msg=f"zk{self.sid} leader not activated")
        p = self.params
        nf = len(self.active_followers)
        extra = (p.set_extra_cpu if req.op == "set"
                 else p.delete_extra_cpu if req.op == "delete" else 0.0)
        n_obs = len(self.active_observers)
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
        zxid = (self.epoch << 32) | (self.zxid_counter + 1)
        txn, result = self._speculate(req, zxid)  # raises ZKError to caller
        self.zxid_counter += 1
        entry = (zxid, txn)     # one object, in every replica's log
        self.log.append(entry)
        out = _Outstanding(txn=txn, result=result, done=self.sim.event())
        self.outstanding[zxid] = out
        self.out_queue.append(zxid)
        prop = Propose(entry, self.epoch)
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
                self._on_ack(self.sid, (item[1],))
            elif item[3] == self._term:
                # ("log", the leader's entry, leader_sid, term), accepted
                # against the tree still current: a stale one is dropped
                _, entry, leader_sid, _ = item
                self.log.append(entry)
                ack_zxids.append((leader_sid, entry[0]))
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
        if self._presync is not None:
            # Mid-sync: the leader already counts us as active, so buffer
            # proposals until the sync response is applied (they are FIFO
            # behind it on the wire, but our coroutine applies it late).
            self._presync.append(prop)
            return
        if self.role != FOLLOWING or prop.epoch != self.epoch:
            return  # stale leader
        zxid = prop.entry[0]
        if zxid <= self._accepted_zxid:
            return  # duplicate (logged, or queued/batched for the fsync)
        if self.log and zxid <= self.log[-1][0]:
            return  # duplicate (already logged)
        if self._gap_before(zxid):
            # A proposal was lost on the wire: logging past the hole and
            # later applying commits across it would silently diverge from
            # the leader at the same commit index. Buffer this proposal and
            # re-sync our log from the leader instead.
            self.begin_sync(self.leader_sid)
            self._presync.append(prop)
            return
        self._accepted_zxid = zxid
        self._logger.submit(("log", prop.entry, self.leader_sid, self._term))

    def _gap_before(self, zxid: int) -> bool:
        """True if accepting ``zxid`` would leave a hole in the log.

        Proposals within an epoch carry consecutive zxid counters; the
        predecessor of ``zxid`` must already have been accepted into the
        pipeline (``_accepted_zxid`` — the log, the fsync queue, or the
        in-flight fsync batch)."""
        last = self._accepted_zxid
        if not last:
            # Fresh, empty log: the first proposal of an epoch is counter 1.
            return (zxid & 0xFFFFFFFF) != 1
        if (zxid >> 32) != (last >> 32):
            # First proposal we see of a new epoch; any committed
            # predecessors arrived via the post-election sync.
            return (zxid & 0xFFFFFFFF) != 1
        return zxid != last + 1

    def _f_ack(self, src: str, ack: Ack) -> None:
        if self.role == LEADING:
            self._on_ack(ack.sid, ack.zxid)

    def _on_ack(self, sid: int, zxids: Tuple[int, ...]) -> None:
        """Count ``sid``'s acks, then commit the quorum-acked prefix of
        the queue strictly in zxid order."""
        outstanding = self.outstanding
        for zxid in zxids:
            out = outstanding.get(zxid)
            if out is not None:
                out.acks.add(sid)
        queue, upto = self.out_queue, 0
        while queue and len(outstanding[queue[0]].acks) >= self.quorum:
            upto = queue.popleft()
        if upto:
            self.pending_commit = upto
            self._kick_applier()

    def _f_commit(self, src: str, commit: Commit) -> None:
        if self._presync is not None:
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
                    term = self._term
                    yield from self.node.cpu_work(p.apply_cpu * len(todo))
                    if term != self._term:
                        continue    # the tree was rebuilt meanwhile
                    for zxid, txn in todo:
                        self.store.apply(txn, zxid, self.sim.now)
                        self.commit_index = zxid
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
        """Next run of committed-but-unapplied log entries: those in
        ``(commit_index, pending_commit]``, for either role; none while
        LOOKING."""
        upto = self.pending_commit
        if self.role == LOOKING or upto <= self.commit_index:
            return []
        return [(z, t) for z, t in self._log_tail(self.commit_index)
                if z <= upto]

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
        if not (self.data_watches or self.child_watches):
            return
        kind = txn[0]
        if kind == "multi":
            for sub in txn[1]:
                self._fire_watches(sub)
            return
        path = txn[1]
        parent, _ = split_path(path)
        if kind == "create":
            self._notify(self.data_watches, path, "created")
            self._notify(self.child_watches, parent, "child")
        elif kind == "delete":
            self._notify(self.data_watches, path, "deleted")
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
