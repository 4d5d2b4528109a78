"""Every role transition of a ZooKeeper server: :class:`Membership`.

``ZKServer`` inherits this mixin, and nothing outside it but
``ZKServer.__init__`` assigns the server's role state: ``role``,
``leader_sid``, the epochs, activation, the active follower sets, the term
and the sync buffer (``tests/zk/test_role_state.py`` holds that). It
covers static boot, fast leader election, ZAB's recovery sync, heartbeats
and the failure detector, and crash/recovery.

Election: a LOOKING server broadcasts a vote for the best candidate it
knows — ordered by (last logged zxid, server id), exactly the real FLE
criterion — adopting and re-broadcasting any better vote it hears. When a
quorum of current votes agrees on one candidate, the server decides: it
becomes leader if the candidate is itself, otherwise it syncs with and
follows the winner.

Sync: the new leader's log is authoritative; a (re)joining follower ships
its logged zxid sequence, the leader computes the longest common prefix,
and replies with a truncate point plus the missing suffix. The leader
activates (serves writes) once a quorum of members is synced, and — per
ZAB — commits its entire log at activation.

The term (``_term``) is bumped by every decision and every tree rebuild. A
sync attempt, a logger ``log`` item and an applier batch each carry the
term they were begun under and act only while it is current; stale work
is ignored, not cancelled (MODEL.md §6).
"""

from __future__ import annotations

from typing import Generator

from ..sim.core import Interrupt
from ..sim.resources import Store
from ..sim.rpc import Reply, RpcTimeout
from .data import ZnodeStore
from .errors import ConnectionLossError, NotLeaderError, ZKError
from .protocol import Ack, FollowerInfo, Ping, Pong, Propose, SyncResponse, Vote

LOOKING = "looking"
LEADING = "leading"
FOLLOWING = "following"


class Membership:
    """The role machine half of :class:`~repro.zk.server.ZKServer`."""

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
            self.begin_sync(self.static_leader)
        else:
            self.role = FOLLOWING
        self.last_ping_at = self.sim.now

    # ------------------------------------------------------------------
    # fast leader election
    # ------------------------------------------------------------------
    def start_election(self) -> None:
        """Enter LOOKING and begin a new election round."""
        if self.node.down:
            return
        if self.role == LEADING:
            self._step_down()
        self.role = LOOKING
        self.activated = False
        self.leader_sid = None
        if self._holds:
            self._release_holds()
        if not self.observer:
            # Observers never vote or lead; they just look for a leader to
            # re-sync with (via the vote-hint path in _f_vote).
            self.stats["elections"] += 1
            self.election_round += 1
            self._votes = {self.sid: (self.last_logged_zxid, self.sid)}
            self._my_vote = (self.last_logged_zxid, self.sid)
        self._broadcast_vote()
        self.node.spawn(self._election_ticker(), f"zk{self.sid}.election")

    def _broadcast_vote(self) -> None:
        zxid, sid = self._my_vote
        vote = Vote(self.sid, sid, zxid, self.election_round, self.role)
        for peer in self.followers():
            self._cast_peer(peer, "vote", vote, size=64)

    def _election_ticker(self) -> Generator:
        """Re-broadcast periodically so elections survive lost casts and
        round changes, and re-check the decision condition. Round-agnostic:
        a server that joins a peer's newer round must keep broadcasting, or
        two-survivor elections livelock (the joiner goes silent and the
        peer never reaches quorum)."""
        if self._ticker_running:
            return
        self._ticker_running = True
        try:
            while True:
                try:
                    yield self.sim.timeout(self.params.election_tick)
                except Interrupt:
                    return
                if self.role != LOOKING:
                    return
                self._broadcast_vote()
                self._maybe_decide()
        finally:
            self._ticker_running = False

    def _f_vote(self, src: str, vote: Vote) -> None:
        """Fast-handler for incoming election notifications."""
        if self.role != LOOKING:
            # Help latecomers find the established leader.
            if vote.state == LOOKING and self.leader_sid is not None:
                reply = Vote(self.sid, self.leader_sid,
                             self.last_logged_zxid, vote.round, self.role)
                self._cast_peer(vote.sid, "vote", reply, size=64)
            return
        if vote.state != LOOKING:
            # Authoritative hint: an established member points at its
            # leader — never at the receiver, who would "follow itself" and
            # be refused.
            if self._presync is None and vote.proposed_sid != self.sid:
                self.begin_sync(vote.proposed_sid)
            return
        if vote.sid >= self.ensemble_size:
            return  # an observer's vote never counts toward any quorum
        if vote.round > self.election_round:
            # Peer is in a newer round; join it (and speak up in it).
            self.election_round = vote.round
            self._votes = {self.sid: self._my_vote}
            self._broadcast_vote()
        elif vote.round < self.election_round and vote.state == LOOKING:
            return  # stale round
        self._votes[vote.sid] = (vote.proposed_zxid, vote.proposed_sid)
        candidate = (vote.proposed_zxid, vote.proposed_sid)
        if vote.proposed_sid >= self.ensemble_size:
            return  # never adopt an observer as candidate
        if candidate > self._my_vote:     # higher zxid, then higher sid
            self._my_vote = candidate
            self._votes[self.sid] = candidate
            self._broadcast_vote()
        self._maybe_decide()

    def _maybe_decide(self) -> None:
        backing = sum(1 for v in self._votes.values() if v == self._my_vote)
        if backing < self.quorum:
            return
        winner_sid = self._my_vote[1]
        if winner_sid == self.sid:
            self.become_leader()
        else:
            self.begin_sync(winner_sid)

    # ------------------------------------------------------------------
    # decisions and the recovery sync
    # ------------------------------------------------------------------
    def begin_sync(self, leader_sid: int) -> None:
        """The one way into a sync attempt: buffer proposals and commits
        from the instant the server commits to following (nothing racing
        ahead of the sync response is lost or applied early), and own it
        by a new term."""
        self._term += 1
        self._presync = []
        self.role = FOLLOWING  # tentative; follow() may re-elect
        self.leader_sid = leader_sid
        self.node.spawn(self.follow(leader_sid, self._term),
                        f"zk{self.sid}.follow")

    def become_leader(self) -> None:
        """Adopt a new epoch and wait for a quorum of followers to sync.

        Per ZAB, the new leader's entire log is committed once it
        activates: any proposal it logged under a previous epoch either
        reached a quorum (must survive) or can safely be committed anyway
        because this leader won with the highest logged zxid in a quorum.
        """
        self.role = LEADING
        self.leader_sid = self.sid
        self._presync = None
        new_epoch = (self.last_logged_zxid >> 32) + 1
        self.epoch = max(new_epoch, self.promised_epoch + 1)
        self.promised_epoch = self.epoch
        self.zxid_counter = 0
        self.active_followers = set()
        self.activated = False
        # Commit the full log locally; the rebuild's new term disowns a
        # sync attempt still in flight.
        self._rebuild_from_disk(self.last_logged_zxid)
        self._rebuild_spec()
        self.outstanding.clear()
        self.out_queue.clear()
        self.last_pong_at = {}
        # Single-member ensembles activate immediately.
        if self.quorum <= 1:
            self.activated = True

    def follow(self, leader_sid: int, term: int) -> Generator:
        """Sync with the elected leader, then serve as a follower. On
        success *and* on failure it acts only while its term is current: a
        stale attempt is not interrupted, it returns into nothing."""
        resp = None
        try:
            try:
                info = FollowerInfo(self.sid, tuple(z for z, _ in self.log),
                                    observer=self.observer)
                resp = yield from self.agent.call(
                    self.peers[leader_sid], "follower_info", info,
                    size=128 + 8 * len(self.log), timeout=2.0)
                if resp.epoch < self.promised_epoch:
                    raise NotLeaderError(msg=f"zk{leader_sid}: stale epoch")
            except ZKError:
                # Refused — an answer, not a timeout: the next round waits
                # one tick, so no re-election loop is paced by the wire.
                resp = None
                yield self.sim.timeout(self.params.election_tick)
        except (RpcTimeout, Interrupt):
            pass
        if term != self._term:
            return
        if resp is None:
            self._presync = None
            if self.params.failure_detection and not self.node.down:
                self.start_election()
            return
        self.promised_epoch = resp.epoch
        self.epoch = resp.epoch
        self.leader_sid = leader_sid
        # Truncate divergent suffix, append the leader's, rebuild, apply commits.
        self.log = [e for e in self.log if e[0] <= resp.truncate_to]
        self.log.extend(resp.entries)
        self._rebuild_from_disk(resp.commit_to)
        self._accepted_zxid = self.last_logged_zxid
        self.role = FOLLOWING
        self.last_ping_at = self.sim.now
        # Entries learned through the sync are durably logged now: ack the
        # uncommitted tail so proposals that were dropped on the wire can
        # still reach quorum through a re-synced follower.
        if not self.observer:
            tail = tuple(z for z, _ in self.log if z > resp.commit_to)
            if tail:
                self._cast_peer(leader_sid, "ack", Ack(tail, self.sid))
        # Replay, in arrival order, what raced past the sync response.
        buffered, self._presync = self._presync, None
        for msg in buffered:
            (self._f_propose if isinstance(msg, Propose)
             else self._f_commit)("", msg)

    def _h_follower_info(self, src: str, info: FollowerInfo) -> Generator:
        if self.role != LEADING:
            raise NotLeaderError(msg=f"zk{self.sid} is not leading")
        yield from self.node.cpu_work(self.params.sync_cpu)
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
        if info.observer:
            self.active_observers.add(info.sid)
        else:
            self.active_followers.add(info.sid)
            if len(self.active_followers) + 1 >= self.quorum:
                self.activated = True
        resp = SyncResponse(self.epoch, truncate_to, entries, self.commit_index)
        return Reply(resp, size=160 + 64 * len(entries))

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
                    self.start_election()
            elif self.role == LEADING:
                alive = sum(1 for sid in self.active_followers
                            if now - self.last_pong_at.get(sid, 0.0)
                            <= p.ping_timeout)
                if alive + 1 < self.quorum and now > p.ping_timeout:
                    self.start_election()    # steps down first

    def _step_down(self) -> None:
        self.role = LOOKING
        self.activated = False
        self.pending_commit = self.commit_index  # the next leader's to grant
        self.active_followers.clear()
        for zxid, out in list(self.outstanding.items()):
            if not out.done.triggered:
                out.done.fail(ConnectionLossError(
                    msg=f"zk{self.sid} lost leadership"))
                out.done._used = True
        self.outstanding.clear()
        self.out_queue.clear()

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        # Volatile state is lost; the durable log and promised_epoch stay.
        self.role = LOOKING
        self.activated = False
        self.leader_sid = None
        self.outstanding.clear()
        self.out_queue.clear()
        self.active_followers.clear()
        self.active_observers.clear()
        self._dentries.clear()
        self.data_watches.clear()
        self.child_watches.clear()
        self._logger.clear()
        self._votes.clear()
        self._holds.clear()      # their holders died with the node
        # Accepted-but-unfsynced proposals died with the logger pipeline.
        self._accepted_zxid = self.last_logged_zxid

    def _rebuild_from_disk(self, upto: int = 0) -> None:
        """Rebuild the tree from an empty store and replay the log up to
        ``upto``: the one way a tree is rebuilt, so it begins a new term
        and work accepted against the old tree is dropped. Replaying
        nothing is the conservative default: everything logged before a
        crash may have been committed, and ZAB resolves the actual commit
        point during sync or election."""
        self._term += 1
        self.store = ZnodeStore()
        self.commit_index = 0
        for zxid, txn in self.log:
            if self.commit_index < zxid <= upto:
                self.store.apply(txn, zxid, self.sim.now)
                self.commit_index = zxid
        self.pending_commit = self.commit_index
        if self._holds:
            self._release_holds()

    def _on_recover(self) -> None:
        self._apply_kick = Store(self.sim)
        self._applier_idle = True
        self._rebuild_from_disk()
        self._start_pipelines()
        if self.params.failure_detection:
            self.start_election()
        else:
            assert self.static_leader is not None and \
                self.static_leader != self.sid, \
                "static-role mode cannot recover the leader"
            self.node.spawn(self._rejoin_static(), f"zk{self.sid}.rejoin")

    def _rejoin_static(self) -> Generator:
        yield self.sim.timeout(0)
        # Not a decision: the attempt owns itself and leaves the role
        # alone, so a recovering follower refuses reads until synced.
        self._term += 1
        self._presync = []
        yield from self.follow(self.static_leader, self._term)
