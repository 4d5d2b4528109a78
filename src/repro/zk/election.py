"""Fast leader election and the epoch-sync (recovery) phase.

A LOOKING server broadcasts a vote for the best candidate it knows —
ordered by (last logged zxid, server id), exactly the real FLE criterion —
adopting and re-broadcasting any better vote it hears. When a quorum of
current votes agrees on one candidate, the server decides: it becomes
leader if the candidate is itself, otherwise it syncs with and follows the
winner.

The sync phase implements ZAB recovery: the new leader's log is
authoritative; a (re)joining follower ships its logged zxid sequence, the
leader computes the longest common prefix, and replies with a truncate
point plus the missing suffix. The leader activates (serves writes) once a
quorum of members is synced, and — per ZAB — commits its entire log at
activation. A sync attempt has one way in (:func:`begin_sync`), one owner
(the decision that spawned it) and one way out (MODEL.md §6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Tuple

from ..sim.core import Interrupt
from ..sim.rpc import RpcTimeout
from .data import ZnodeStore
from .errors import NotLeaderError, ZKError
from .protocol import Ack, FollowerInfo, Propose, Vote

if TYPE_CHECKING:  # pragma: no cover
    from .server import ZKServer

LOOKING = "looking"
LEADING = "leading"
FOLLOWING = "following"


def vote_order(candidate_zxid: int, candidate_sid: int) -> Tuple[int, int]:
    return (candidate_zxid, candidate_sid)


def start_election(server: "ZKServer") -> None:
    """Enter LOOKING and begin a new election round."""
    if server.node.down:
        return
    if server.role == LEADING:
        server._step_down()
    server.role = LOOKING
    server.activated = False
    server.leader_sid = None
    if server._holds:
        server._release_holds()
    if not server.observer:
        # Observers never vote or lead; they just look for a leader to
        # re-sync with (via the vote-hint path in on_vote).
        server.stats["elections"] += 1
        server.election_round += 1
        server._votes = {server.sid: (server.last_logged_zxid, server.sid)}
        server._my_vote = (server.last_logged_zxid, server.sid)
    _broadcast_vote(server)
    server.node.spawn(_election_ticker(server), f"zk{server.sid}.election")


def _broadcast_vote(server: "ZKServer") -> None:
    zxid, sid = server._my_vote
    vote = Vote(server.sid, sid, zxid, server.election_round, server.role)
    for peer in server.followers():
        server._cast_peer(peer, "vote", vote, size=64)


def _election_ticker(server: "ZKServer") -> Generator:
    """Re-broadcast periodically so elections survive lost casts and
    round changes, and re-check the decision condition. Round-agnostic:
    a server that joins a peer's newer round must keep broadcasting, or
    two-survivor elections livelock (the joiner goes silent and the peer
    never reaches quorum)."""
    if server._ticker_running:
        return
    server._ticker_running = True
    try:
        while True:
            try:
                yield server.sim.timeout(server.params.election_tick)
            except Interrupt:
                return
            if server.role != LOOKING:
                return
            _broadcast_vote(server)
            _maybe_decide(server)
    finally:
        server._ticker_running = False


def on_vote(server: "ZKServer", vote: Vote) -> None:
    """Fast-handler for incoming election notifications."""
    if server.role != LOOKING:
        # Help latecomers find the established leader.
        if vote.state == LOOKING and server.leader_sid is not None:
            reply = Vote(server.sid, server.leader_sid,
                         server.last_logged_zxid, vote.round, server.role)
            server._cast_peer(vote.sid, "vote", reply, size=64)
        return
    if vote.state != LOOKING:
        # Authoritative hint: an established member points at its leader —
        # never at the receiver, who would "follow itself" and be refused.
        if not server._syncing and vote.proposed_sid != server.sid:
            begin_sync(server, vote.proposed_sid)
        return
    if vote.sid >= server.ensemble_size:
        return  # an observer's vote never counts toward any quorum
    if vote.round > server.election_round:
        # Peer is in a newer round; join it (and speak up in it).
        server.election_round = vote.round
        server._votes = {server.sid: server._my_vote}
        _broadcast_vote(server)
    elif vote.round < server.election_round and vote.state == LOOKING:
        return  # stale round
    server._votes[vote.sid] = (vote.proposed_zxid, vote.proposed_sid)
    candidate = (vote.proposed_zxid, vote.proposed_sid)
    if vote.proposed_sid >= server.ensemble_size:
        return  # never adopt an observer as candidate
    if vote_order(*candidate) > vote_order(*server._my_vote):
        server._my_vote = candidate
        server._votes[server.sid] = candidate
        _broadcast_vote(server)
    _maybe_decide(server)


def _maybe_decide(server: "ZKServer") -> None:
    backing = sum(1 for v in server._votes.values() if v == server._my_vote)
    if backing < server.quorum:
        return
    winner_sid = server._my_vote[1]
    if winner_sid == server.sid:
        become_leader(server)
    else:
        begin_sync(server, winner_sid)


def begin_sync(server: "ZKServer", leader_sid: int) -> None:
    """The one way into a sync attempt: buffer proposals and commits from
    the instant the server commits to following (nothing racing ahead of
    the sync response is lost or applied early), and own it by a new term."""
    server._sync_term += 1
    server._syncing = True
    server._presync = []
    server.role = FOLLOWING  # tentative; follow() may re-elect
    server.leader_sid = leader_sid
    server.node.spawn(follow(server, leader_sid, server._sync_term),
                      f"zk{server.sid}.follow")


def become_leader(server: "ZKServer") -> None:
    """Adopt a new epoch and wait for a quorum of followers to sync.

    Per ZAB, the new leader's entire log is committed once it activates:
    any proposal it logged under a previous epoch either reached a quorum
    (must survive) or can safely be committed anyway because this leader
    won with the highest logged zxid in a quorum.
    """
    server.role = LEADING
    server.leader_sid = server.sid
    server._sync_term += 1  # disowns a sync attempt still in flight
    server._syncing = False
    new_epoch = (server.last_logged_zxid >> 32) + 1
    server.epoch = max(new_epoch, server.promised_epoch + 1)
    server.promised_epoch = server.epoch
    server.zxid_counter = 0
    server.active_followers = set()
    server.activated = False
    # Commit the full log locally.
    server._rebuild_from_disk()
    for zxid, txn in server.log:
        if zxid > server.commit_index:
            server.store.apply(txn, zxid, server.sim.now)
            server.commit_index = zxid
    if server._holds:
        server._release_holds()
    # Speculative tree starts equal to the committed tree.
    server.spec_store = ZnodeStore.from_snapshot(server.store.snapshot())
    server.outstanding.clear()
    server.out_queue.clear()
    server.last_pong_at = {}
    # Single-member ensembles activate immediately.
    if server.quorum <= 1:
        server.activated = True


def follow(server: "ZKServer", leader_sid: int, term: int = 0) -> Generator:
    """Sync with the elected leader, then serve as a follower. On success
    *and* on failure it acts only while its term is current: a stale
    attempt is not interrupted, it returns into nothing."""
    if not term:  # static-mode rejoin: not a decision, owns itself
        server._sync_term += 1
        server._syncing = True
        server._presync = []
        term = server._sync_term
    resp = None
    try:
        try:
            info = FollowerInfo(server.sid, tuple(z for z, _ in server.log),
                                observer=server.observer)
            resp = yield from server.agent.call(
                server.peers[leader_sid], "follower_info", info,
                size=128 + 8 * len(server.log), timeout=2.0)
            if resp.epoch < server.promised_epoch:
                raise NotLeaderError(msg=f"zk{leader_sid}: stale epoch")
        except ZKError:
            # Refused — an answer, not a timeout: the next round waits one
            # tick, so no re-election loop is ever paced by the wire.
            resp = None
            yield server.sim.timeout(server.params.election_tick)
    except (RpcTimeout, Interrupt):
        pass
    if term != server._sync_term:
        return
    if resp is None:
        server._syncing = False
        if server.params.failure_detection and not server.node.down:
            start_election(server)
        return
    server.promised_epoch = resp.epoch
    server.epoch = resp.epoch
    server.leader_sid = leader_sid
    # Truncate divergent suffix, append the leader's, rebuild, apply commits.
    if resp.snapshot is not None:
        server._snapshot = resp.snapshot
        server._snapshot_zxid = resp.snapshot_zxid
        server.log = list(resp.entries)
    else:
        server.log = [(z, t) for z, t in server.log if z <= resp.truncate_to]
        server.log.extend(resp.entries)
    server._rebuild_from_disk()
    for zxid, txn in server.log:
        if zxid > server.commit_index and zxid <= resp.commit_to:
            server.store.apply(txn, zxid, server.sim.now)
            server.commit_index = zxid
    if server._holds:
        server._release_holds()
    server.pending_commit = server.commit_index
    server._accepted_zxid = (server.log[-1][0] if server.log
                             else server._snapshot_zxid)
    server.role = FOLLOWING
    server.last_ping_at = server.sim.now
    server._syncing = False
    # Entries learned through the sync are durably logged now: ack the
    # uncommitted tail so proposals that were dropped on the wire can
    # still reach quorum through a re-synced follower.
    if not server.observer:
        tail = tuple(z for z, _ in server.log if z > resp.commit_to)
        if tail:
            server._cast_peer(leader_sid, "ack", Ack(tail, server.sid))
    # Replay, in arrival order, what raced past the sync response.
    buffered, server._presync = server._presync, []
    for msg in buffered:
        (server._f_propose if isinstance(msg, Propose)
         else server._f_commit)("", msg)
