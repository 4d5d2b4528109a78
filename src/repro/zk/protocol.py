"""Wire records exchanged between ZooKeeper servers and clients.

Client-facing requests travel as RPC *calls* (they need replies); the ZAB
broadcast (PROPOSE / ACK / COMMIT), heartbeats, election votes, and watch
events travel as one-way *casts*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# ---------------------------------------------------------------------------
# Client <-> server
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadRequest:
    """exists / get_data / get_children / resolve, served locally by any
    server. ``resolve`` travels on the same RPC method as the other reads,
    so hedging, breakers and deadline propagation apply unchanged."""

    op: str                    # "exists" | "get" | "children" | "resolve"
    path: str
    session: int = 0
    watch: bool = False
    map_epoch: int = -1        # shard-map epoch the caller routed by
    #                            (-1: unstamped — not elastic-routed)


@dataclass(frozen=True)
class ResolveResult:
    """Reply to a ``resolve`` read: whole-path lookup resolved server-side.

    ``status == "ok"``: the path exists — ``data``/``stat`` are its znode
    record, exactly what a ``get`` would have returned.

    ``status == "miss"``: the path does not exist on this server;
    ``ancestor`` is the nearest *existing* ancestor found during the walk
    (``"/"`` when nothing below the root exists) and ``ancestor_data`` its
    znode data (``b""`` for the root). The server never interprets
    payloads — the client classifies the miss (ENOENT when the ancestor is
    a directory, ENOTDIR otherwise) and may negative-cache the missing
    intermediate components between ``ancestor`` and the target.
    """

    status: str                # "ok" | "miss"
    path: str
    data: bytes = b""
    stat: Optional[object] = None
    ancestor: str = "/"
    ancestor_data: bytes = b""


@dataclass(frozen=True)
class WriteRequest:
    """create / delete / set / multi — must go through ZAB."""

    op: str                    # "create" | "delete" | "set" | "multi"
    path: str = ""
    data: bytes = b""
    version: int = -1
    ephemeral: bool = False
    sequential: bool = False
    ops: Tuple = ()            # for multi: tuple of WriteRequest
    session: int = 0
    map_epoch: int = -1        # shard-map epoch the caller routed by
    #                            (-1: unstamped — not elastic-routed)


@dataclass(frozen=True)
class WatchEvent:
    """Delivered (cast) to the client that registered the watch."""

    kind: str                  # "created" | "deleted" | "changed" | "child"
    path: str


# ---------------------------------------------------------------------------
# Server <-> server (ZAB)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Propose:
    zxid: int
    txn: tuple
    epoch: int


@dataclass(frozen=True)
class ProposeBatch:
    """Leader-side write batching: one marshalled message carries a run of
    consecutive proposals, amortizing the per-follower stream cost (the
    λFS/AsyncFS batching lever). Followers process the contained proposals
    in order, exactly as if they had arrived individually."""

    props: Tuple[Propose, ...]


@dataclass(frozen=True)
class Ack:
    zxid: int
    sid: int


@dataclass(frozen=True)
class Commit:
    zxid: int


@dataclass(frozen=True)
class Ping:
    sid: int
    epoch: int


@dataclass(frozen=True)
class Pong:
    sid: int


@dataclass(frozen=True)
class Vote:
    """Fast-leader-election notification."""

    sid: int                   # sender
    proposed_sid: int          # candidate the sender currently backs
    proposed_zxid: int         # candidate's last logged zxid
    round: int                 # sender's election round
    state: str                 # sender's role at send time


@dataclass(frozen=True)
class FollowerInfo:
    """Sync request from a (re)joining follower (or observer)."""

    sid: int
    last_zxid: Tuple[int, ...]          # every zxid of the sender's log
    observer: bool = False


@dataclass(frozen=True)
class SyncResponse:
    """Leader -> follower: adopt this epoch; truncate and append.

    When the follower is too far behind the leader's (checkpointed) log,
    ``snapshot`` carries a full tree dump taken at ``snapshot_zxid`` and the
    follower bootstraps from it instead of replaying from genesis.
    """

    epoch: int
    truncate_to: int           # drop log entries with zxid > truncate_to
    entries: tuple             # ((zxid, txn), ...) to append
    commit_to: int             # leader's commit index after entries
    snapshot: Optional[list] = None
    snapshot_zxid: int = 0
