"""Per-client write-behind mutation log (asynchronous metadata updates).

The paper's client charges every namespace mutation the full quorum
round trip before the application sees an ack. AsyncFS/SwitchFS show the
ack can be decoupled from the durable commit when ordering and crash
consistency stay coordinated; this module is that decoupling for the
DUFS client:

- ``append()`` records one create/delete/setdata in an **ordered
  per-client log**, installs a pending entry in the metadata cache's
  write overlay (read-your-writes), and acks after ``ack_cpu`` of client
  CPU — no ZooKeeper contact and no back-end call on the caller's
  critical path (a file create's physical file is made in the drain);
- the log drains through a **streamed window**: queued ops are issued
  in program order, each as its own process through the owning
  client's op runner (the same one its synchronous path calls) and so
  its :class:`~repro.mds.MetadataService`, while fewer than
  ``DRAIN_WINDOW`` are in flight — so drains share the leader's
  group-committed txn log, the retry/fail-over machinery, and (behind a
  :class:`~repro.mds.ShardedMDS`) epoch-stamped routing that retries
  cleanly through ``StaleShardMapError`` during live migration;
- the window stops at the first queued op whose path conflicts (equal,
  ancestor or descendant) with an op still in flight, and each
  completion pumps it again. An op is issued only after every earlier
  one, and never beside a conflicting one, so per-path dependency order
  — and the program order of any two conflicting ops — is preserved
  across shards, while one slow op holds back only what depends on it;
- :meth:`barrier` is the explicit synchronization point (fsync, a
  ``flush``, directory renames, cross-shard multis): it waits until
  every acked op has committed or been rejected;
- every drained op completes only after the physical steps the runner
  takes around its metadata call (a file create's physical file before
  its znode, a landed file delete's unlink after it, a rejected create's
  rollback): no name maps to a missing file, and until the runner
  returns the client's :class:`~repro.core.physical.PhysicalFiles` holds
  the op's file as in flight, as it does a synchronous op's;
- a rejected op (the quorum refused it, or its physical file could not
  be made, after the caller was already acked) rolls its overlay entry
  back and surfaces through :meth:`pop_errors` at the next barrier —
  close-to-open error semantics, like a delayed-write error reported at
  ``close()``.

Crash semantics: the log lives on the client node, so a node crash
interrupts every in-flight drain process. Whatever was acked
but not yet committed — at most ``max_pending`` ops — is the **bounded
loss window**. The log forgets it; the files its creates and deletes
may leave unnamed are the physical side's crash residue, the one rule
the chaos auditor applies to both write modes.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, Generator, List, Optional,
                    Tuple)

from ..errors import FSError
from ..models.params import AsyncParams
from ..sim.core import Event, Interrupt
from ..sim.node import Node
from ..svc.trace import NULL_BUS, TraceBus
from .paths import subtree_prefix


#: Most ops one client's drain has in flight at once.
DRAIN_WINDOW = 64


class PendingOp:
    """One namespace mutation: acked-but-uncommitted in program order, or
    (``seq`` 0) on its way through the synchronous commit seam."""

    __slots__ = ("seq", "kind", "path", "data", "payload", "is_dir", "src")

    def __init__(self, seq: int, kind: str, path: str, data: bytes,
                 payload: Any, is_dir: bool, src: Optional[str] = None):
        self.seq = seq
        self.kind = kind            # "create" | "delete" | "set" | "rename"
        self.path = path
        self.data = data            # encoded payload; a rename's multi ops
        self.payload = payload      # decoded payload (delete: what it removes)
        self.is_dir = is_dir
        self.src = src              # rename (never logged): the path moved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PendingOp #{self.seq} {self.kind} {self.path}>"


class WriteBehindLog:
    """Ordered per-client mutation log drained through a streamed window.

    ``run`` is the owning client's op runner, a generator callback
    ``(op)`` that does the op — its physical steps, its metadata call and
    the at-least-once outcome check — and returns None when it landed,
    else the :class:`~repro.errors.FSError` it is owed: the overlay entry
    is rolled back and the error is reported at the next barrier. The op
    completes after the runner returns: a barrier waits for it, a crash
    leaves the op lost.
    """

    def __init__(
        self,
        node: Node,
        run: Callable[[PendingOp], Generator],
        mdcache,
        params: Optional[AsyncParams] = None,
        bus: TraceBus = NULL_BUS,
        endpoint: str = "dufs-client",
    ):
        self.node = node
        self.sim = node.sim
        self.run = run
        self.mdcache = mdcache
        self.params = params or AsyncParams()
        self.endpoint = endpoint
        self.stats = {"acked": 0, "committed": 0, "rejected": 0, "stalls": 0}
        self._seq = 0
        self._pending: Dict[int, PendingOp] = {}    # seq -> op, in order
        self._errors: List[Tuple[PendingOp, FSError]] = []
        self._barriers: List[Event] = []
        self._stalled: List[Event] = []
        self._queue: Deque[PendingOp] = deque()     # acked, not yet issued
        self._inflight: Dict[int, str] = {}  # seq -> its subtree_prefix
        self._bus = bus if bus is not None else NULL_BUS
        self._bus_key = f"{endpoint}.wblog"
        self._issued = self._depth = 0      # see batch_stats
        node.on_crash(self._on_crash)

    # -- producer side -------------------------------------------------------
    def append(self, kind: str, path: str, data: bytes = b"",
               payload: Any = None, is_dir: bool = False) -> Generator:
        """Log one mutation and ack. Blocks (backpressure) only while the
        acked-but-uncommitted window is at ``max_pending``."""
        while len(self._pending) >= self.params.max_pending:
            self.stats["stalls"] += 1
            ev = self.sim.event()
            self._stalled.append(ev)
            yield ev
        if self.params.ack_cpu:
            yield from self.node.cpu_work(self.params.ack_cpu)
        self._seq += 1
        op = PendingOp(self._seq, kind, path, data, payload, is_dir)
        self._pending[op.seq] = op
        self.mdcache.overlay_put(path, kind, payload, op.seq)
        self._queue.append(op)
        self.stats["acked"] += 1
        self._pump()
        return op

    def barrier(self) -> Generator:
        """Wait until every acked op has committed or been rejected (the
        fsync/flush/rename/cross-shard synchronization point)."""
        if not self._pending:
            return
        ev = self.sim.event()
        self._barriers.append(ev)
        yield ev

    def pop_errors(self,
                   path: Optional[str] = None,
                   ) -> List[Tuple[PendingOp, FSError]]:
        """Deferred write-behind errors since the last call (close-to-open
        reporting: the caller owns them once popped). With ``path``, pops
        only that path's errors — an ``fsync(path)`` must not consume
        errors another file's fsync is entitled to see."""
        if path is None:
            errors, self._errors = self._errors, []
            return errors
        mine = [e for e in self._errors if e[0].path == path]
        self._errors = [e for e in self._errors if e[0].path != path]
        return mine

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    # -- crash semantics -----------------------------------------------------
    def _on_crash(self) -> None:
        """The client node died: the volatile log and every in-flight
        drain process die with it. Acked-but-uncommitted ops are the
        bounded loss (at most ``max_pending``); their overlay entries are
        forgotten — a restarted client starts cold, it does not remember
        ghosts."""
        self._queue.clear()
        self._inflight.clear()
        for op in self._pending.values():
            self.mdcache.overlay_forget(op.path, op.seq)
        self._pending.clear()
        # Waiters (barriers, stalled appenders) ran on this node and were
        # interrupted with it; the events just get dropped.
        self._barriers.clear()
        self._stalled.clear()

    @property
    def batch_stats(self) -> Dict[str, int]:
        """Drain occupancy under the group-commit keys: ``flushes`` counts
        ops issued and ``items`` sums the in-flight depth each issue
        reached, so ``items / flushes`` is the mean window depth."""
        return {"flushes": self._issued, "items": self._depth}

    # -- drain side ----------------------------------------------------------
    def _pump(self) -> None:
        """Issue queued ops in program order while fewer than
        ``DRAIN_WINDOW`` are in flight. Stops at the first op that
        conflicts with one in flight (one path is the other's or an
        ancestor of it): that op — and, to keep program order, every
        later one — waits for a completion to pump again."""
        queue, inflight = self._queue, self._inflight
        while queue and len(inflight) < DRAIN_WINDOW:
            op = queue[0]
            mine = subtree_prefix(op.path)
            for held in inflight.values():
                if mine.startswith(held) or held.startswith(mine):
                    return
            queue.popleft()
            inflight[op.seq] = mine
            self._issued += 1
            self._depth += len(inflight)
            self._bus.mark_batch("dufs", self._bus_key, len(inflight),
                                 len(queue))
            self.node.spawn(self._issue(op), f"{self.endpoint}.drain{op.seq}")

    def _issue(self, op: PendingOp) -> Generator:
        """One drained op's process: the runner's error is a deferred
        rejection; a create that landed then primes the metadata cache
        with the new path, off the barrier. A node crash interrupts it
        (``_on_crash`` dropped the uncompleted op with the window).
        Anything else escapes, and the strict simulator aborts the run on
        it: a drain bug stays loud."""
        try:
            err = yield from self.run(op)
            self._complete(op, err)
            if err is None and op.kind == "create":
                yield from self.mdcache.prime(op.path)
        except Interrupt:
            return

    def _complete(self, op: PendingOp, err: Optional[FSError]) -> None:
        del self._inflight[op.seq]
        self._pump()
        self._pending.pop(op.seq, None)
        if err is None:
            self.stats["committed"] += 1
            self.mdcache.overlay_commit(op.path, op.seq)
        else:
            self.stats["rejected"] += 1
            self.mdcache.overlay_reject(op.path, op.seq)
            self._errors.append((op, err))
        if self._stalled and len(self._pending) < self.params.max_pending:
            stalled, self._stalled = self._stalled, []
            for ev in stalled:
                ev.succeed()
        if not self._pending and self._barriers:
            barriers, self._barriers = self._barriers, []
            for ev in barriers:
                ev.succeed()
