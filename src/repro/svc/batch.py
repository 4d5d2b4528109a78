"""Generic write batching / group-commit loop.

Both durable write pipelines in the reproduction share the same shape: a
producer appends work items and kicks a consumer loop; the loop drains up
to ``max_batch`` items and pays ONE flush (a fsync, a quorum round) for
the whole batch. ZooKeeper's group-committed txn log, its leader-side
proposal coalescing, and PVFS's trove/dbpf sync transactions are all
instances — AsyncFS/λFS-style coalescing as a reusable primitive instead
of three hand-rolled deque+Store loops.

The flush callback is a generator ``flush(batch) -> None`` which may yield
simulator events (CPU, disk, nested RPCs). Crash semantics follow the old
hand-rolled loops: the owning node's crash interrupts the loop, queued
items are dropped by :meth:`clear`, and :meth:`restart` re-arms the loop
on recovery.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator

from ..sim.core import Interrupt
from ..sim.node import Node
from ..sim.resources import Store
from .trace import NULL_BUS, TraceBus


class Batcher:
    """Kick-driven group-commit queue bound to a node.

    ``bus``/``deployment`` wire per-flush occupancy marks (batch fill and
    residual queue depth) onto a :class:`~repro.svc.trace.TraceBus` under
    the key ``deployment/name`` — pure bookkeeping, so a traced pipeline
    schedules the same events as an untraced one.
    """

    def __init__(self, node: Node, name: str,
                 flush: Callable[[list], Generator],
                 max_batch: int = 64,
                 bus: TraceBus = NULL_BUS,
                 deployment: str = "batch"):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.node = node
        self.sim = node.sim
        self.name = name
        self.flush = flush
        self.max_batch = max_batch
        self.bus = bus if bus is not None else NULL_BUS
        self.deployment = deployment
        self.queue: Deque[Any] = deque()
        self.stats = {"flushes": 0, "items": 0}
        self.restart()

    def submit(self, item: Any) -> None:
        """Enqueue one item; it is flushed with the next batch. The loop
        is kicked only on its idle -> busy edge: it re-tests the queue
        after every flush, so a token put while it runs would only spin
        it once more at the instant it finishes."""
        self.queue.append(item)
        if self._idle:
            self._idle = False
            self._kick.put(True)

    def __len__(self) -> int:
        return len(self.queue)

    def clear(self) -> None:
        """Drop queued items (crash: un-flushed work dies with the node)."""
        self.queue.clear()

    def restart(self) -> None:
        """(Re-)arm: fresh kick store + loop, at construction and after a
        node recovery."""
        self._kick = Store(self.sim)
        self._idle = True
        self._proc = self.node.spawn(self._loop(), self.name)

    def _loop(self) -> Generator:
        try:
            while True:
                yield self._kick.get()
                while self.queue:
                    batch = []
                    while self.queue and len(batch) < self.max_batch:
                        batch.append(self.queue.popleft())
                    yield from self.flush(batch)
                    self.stats["flushes"] += 1
                    self.stats["items"] += len(batch)
                    self.bus.mark_batch(self.deployment, self.name,
                                        len(batch), len(self.queue))
                self._idle = True
        except Interrupt:
            return
