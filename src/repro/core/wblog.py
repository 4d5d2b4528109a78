"""Per-client write-behind mutation log (asynchronous metadata updates).

The paper's client charges every namespace mutation the full quorum
round trip before the application sees an ack. AsyncFS/SwitchFS show the
ack can be decoupled from the durable commit when ordering and crash
consistency stay coordinated; this module is that decoupling for the
DUFS client:

- ``append()`` records one create/delete/setdata in an **ordered
  per-client log**, installs a pending entry in the metadata cache's
  write overlay (read-your-writes), and acks after ``ack_cpu`` of client
  CPU — no ZooKeeper contact on the caller's critical path;
- a group-commit :class:`~repro.svc.batch.Batcher` drains the log in
  batches of up to ``DRAIN_BATCH_MAX`` ops through the client's
  :class:`~repro.mds.MetadataService` — so drains inherit leader-side
  proposal coalescing, the retry/fail-over machinery, and (behind a
  :class:`~repro.mds.ShardedMDS`) epoch-stamped routing that retries
  cleanly through ``StaleShardMapError`` during live migration;
- within a batch, ops are issued in **dependency waves**: consecutive
  ops whose paths are unrelated (no equal/ancestor/descendant pair) fly
  concurrently, while an op touching a path a wave member already
  touches starts the next wave. Waves complete in order and batches are
  drained strictly sequentially, so per-path dependency order — and the
  program order of any two conflicting ops — is preserved across
  shards;
- :meth:`barrier` is the explicit synchronization point (fsync, a
  ``flush``, directory renames, cross-shard multis): it waits until
  every acked op has committed or been rejected;
- a rejected op (the quorum refused it after the caller was already
  acked) rolls its overlay entry back and surfaces through
  :meth:`pop_errors` at the next barrier —
  close-to-open error semantics, like a delayed-write error reported at
  ``close()``.

Crash semantics: the log lives on the client node, so a node crash
interrupts the drain loop and any in-flight waves. Whatever was acked
but not yet committed — at most ``max_pending`` ops — is the **bounded
loss window**; :meth:`lost_ops` exposes it so the chaos auditor can
count lost-unacked residue separately from real damage.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..models.params import AsyncParams
from ..sim.core import Event
from ..sim.node import Node
from ..svc.batch import Batcher
from ..svc.trace import NULL_BUS, TraceBus
from ..zk.errors import ZKError
from .paths import is_ancestor


#: Most ops one drain flush of the batcher covers.
DRAIN_BATCH_MAX = 64


class PendingOp:
    """One namespace mutation: acked-but-uncommitted in program order, or
    (``seq`` 0) on its way through the synchronous commit seam."""

    __slots__ = ("seq", "kind", "path", "data", "payload", "is_dir", "src")

    def __init__(self, seq: int, kind: str, path: str, data: bytes,
                 payload: Any, is_dir: bool, src: Optional[str] = None):
        self.seq = seq
        self.kind = kind            # "create" | "delete" | "set" | "rename"
        self.path = path
        self.data = data            # encoded znode payload (b"" for delete)
        self.payload = payload      # decoded payload (None for delete)
        self.is_dir = is_dir
        self.src = src              # rename (never logged): the path moved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PendingOp #{self.seq} {self.kind} {self.path}>"


def issue(service, op: PendingOp, version: int = -1) -> Generator:
    """The one ``kind`` → metadata-service call mapping: the drain awaits
    it per logged op, a synchronous client awaits it inline. A logged
    setdata carries no version (the znode's committed version is
    unknowable before the drain): last writer wins."""
    if op.kind == "create":
        return service.create(op.path, op.data)
    if op.kind == "delete":
        return service.delete(op.path, is_dir=op.is_dir)
    return service.set_data(op.path, op.data, version=version)


def _conflicts(a: PendingOp, b: PendingOp) -> bool:
    """Two ops conflict when one's path is the other's (or an ancestor
    of it): they must commit in program order."""
    return is_ancestor(a.path, b.path) or is_ancestor(b.path, a.path)


class WriteBehindLog:
    """Ordered per-client mutation log drained by a group-commit Batcher.

    ``verify`` is an optional generator callback ``(op, exc)`` the
    owning client supplies to disambiguate at-least-once rejections (a
    retried create/delete whose first attempt landed raises
    NodeExists/NoNode from the duplicate): a true result counts the op
    as committed; anything else rejects it — the overlay entry is rolled
    back and the error is reported at the next barrier. Undoing the op's
    other side effects (e.g. the already-created physical file) is the
    verifier's business: only it knows whether the op provably failed.
    """

    def __init__(
        self,
        node: Node,
        service,
        mdcache,
        params: Optional[AsyncParams] = None,
        verify: Optional[Callable[[PendingOp, ZKError], Generator]] = None,
        bus: TraceBus = NULL_BUS,
        endpoint: str = "dufs-client",
    ):
        self.node = node
        self.sim = node.sim
        self.zk = service
        self.mdcache = mdcache
        self.params = params or AsyncParams()
        self.verify = verify
        self.endpoint = endpoint
        self.stats = {"acked": 0, "committed": 0, "rejected": 0,
                      "stalls": 0, "max_pending": 0, "lost": 0}
        self._seq = 0
        self._pending: Dict[int, PendingOp] = {}    # seq -> op, in order
        self._lost: List[PendingOp] = []            # crash-lost acked ops
        self._errors: List[Tuple[PendingOp, ZKError]] = []
        self._barriers: List[Event] = []
        self._stalled: List[Event] = []
        self._batcher = Batcher(node, f"{endpoint}.wblog", self._drain,
                                max_batch=DRAIN_BATCH_MAX,
                                bus=bus, deployment="dufs")
        node.on_crash(self._on_crash)
        node.on_recover(self._on_recover)

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
        self._batcher.submit(op)
        self.stats["acked"] += 1
        if len(self._pending) > self.stats["max_pending"]:
            self.stats["max_pending"] = len(self._pending)
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
                   ) -> List[Tuple[PendingOp, ZKError]]:
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

    def lost_ops(self) -> List[PendingOp]:
        """Every acked op with no commit: the ones a node crash already
        dropped plus the window still pending right now — the auditor's
        lost-unacked set, in program order."""
        return self._lost + [self._pending[s] for s in sorted(self._pending)]

    # -- crash semantics -----------------------------------------------------
    def _on_crash(self) -> None:
        """The client node died: the volatile log and any in-flight waves
        die with it. Acked-but-uncommitted ops become the bounded loss
        (at most ``max_pending``); their overlay entries are forgotten —
        a restarted client starts cold, it does not remember ghosts."""
        self._batcher.clear()
        lost = [self._pending[s] for s in sorted(self._pending)]
        self._pending.clear()
        self._lost.extend(lost)
        self.stats["lost"] += len(lost)
        for op in lost:
            self.mdcache.overlay_forget(op.path, op.seq)
        # Waiters (barriers, stalled appenders) ran on this node and were
        # interrupted with it; the events just get dropped.
        self._barriers.clear()
        self._stalled.clear()

    def _on_recover(self) -> None:
        self._batcher.restart()

    @property
    def batch_stats(self) -> Dict[str, int]:
        return dict(self._batcher.stats)

    # -- drain side ----------------------------------------------------------
    @staticmethod
    def _waves(batch: List[PendingOp]) -> List[List[PendingOp]]:
        """Split a batch into dependency waves, preserving program order:
        an op joins the current wave iff it conflicts with none of its
        members, else it starts the next wave. Conflicting ops therefore
        land in strictly increasing waves, in program order."""
        waves: List[List[PendingOp]] = []
        current: List[PendingOp] = []
        for op in batch:
            if current and any(_conflicts(op, o) for o in current):
                waves.append(current)
                current = [op]
            else:
                current.append(op)
        if current:
            waves.append(current)
        return waves

    def _drain(self, batch: List[PendingOp]) -> Generator:
        """Batcher flush callback: issue the batch wave by wave. Ops of a
        wave fly concurrently; a wave completes before the next starts;
        the Batcher drains batches strictly sequentially."""
        for wave in self._waves(batch):
            if len(wave) == 1:
                yield from self._issue(wave[0])
            else:
                outcomes = yield from self.node.gather(
                    (self._issue(op) for op in wave),
                    [f"{self.endpoint}.drain{op.seq}" for op in wave])
                for outcome in outcomes:
                    outcome.result()

    def _issue(self, op: PendingOp) -> Generator:
        """One drained op through the metadata service. Never raises a
        ZK error out (a failed op is a deferred rejection, not a drain
        crash); a node crash interrupts it like any process — the op
        stays pending and ``_on_crash`` moves it into the lost window."""
        try:
            yield from issue(self.zk, op)
        except ZKError as exc:
            ok = False
            if self.verify is not None:
                ok = yield from self.verify(op, exc)
            self._complete(op, None if ok else exc)
            return
        self._complete(op, None)

    def _complete(self, op: PendingOp, exc: Optional[ZKError]) -> None:
        self._pending.pop(op.seq, None)
        if exc is None:
            self.stats["committed"] += 1
            self.mdcache.overlay_commit(op.path, op.seq)
        else:
            self.stats["rejected"] += 1
            self.mdcache.overlay_reject(op.path, op.seq)
            self._errors.append((op, exc))
        if self._stalled and len(self._pending) < self.params.max_pending:
            stalled, self._stalled = self._stalled, []
            for ev in stalled:
                ev.succeed()
        if not self._pending and self._barriers:
            barriers, self._barriers = self._barriers, []
            for ev in barriers:
                ev.succeed()
