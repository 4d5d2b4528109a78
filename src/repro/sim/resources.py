"""Shared-resource primitives for the simulation kernel.

``Resource`` models a server with fixed concurrency (e.g. the 8 cores of a
metadata server); ``Store`` is an unbounded producer/consumer queue (used
for pipeline kicks).

Usage mirrors SimPy::

    with resource.request() as req:
        yield req
        yield sim.timeout(service_time)
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import _PENDING, Event, Simulator


class Request(Event):
    """Pending claim on a :class:`Resource`; fires when capacity is granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (one Request per simulated op — hot).
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._used = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """FIFO resource with integer capacity."""

    __slots__ = ("sim", "capacity", "users", "queue")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        # holders: granted Requests, or Node's fast-path service timeouts
        self.users: list[Event] = []
        self.queue: deque[Request] = deque()

    def request(self) -> Request:
        req = Request(self)
        users = self.users
        if len(users) < self.capacity:
            users.append(req)
            # Inlined succeed: a fresh request has no waiters yet, so the
            # no-waiter fast path (mark processed, skip the queue) always
            # applies; the process resumes inline when it yields the req.
            req._value = None
            req.callbacks = None
        else:
            self.queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Release a granted request, or cancel a queued one. Idempotent."""
        try:
            self.users.remove(req)
        except ValueError:
            # Not granted (queued or already released): cancel if queued.
            try:
                self.queue.remove(req)
            except ValueError:
                pass
            return
        if self.queue:
            self._grant_next()

    def _grant_next(self) -> None:
        queue = self.queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            nxt = queue.popleft()
            if nxt._value is not _PENDING:  # cancelled
                continue
            users.append(nxt)
            # Inlined Event.succeed (grant cascades run one per release
            # at the same instant).
            nxt._value = None
            if nxt.callbacks:
                sim = nxt.sim
                sim._eid = eid = sim._eid + 1
                sim._lane.append((eid, nxt, None))
            else:
                nxt.callbacks = None


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    __slots__ = ("sim", "items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        # Inlined Event.succeed (one put per pipeline kick — hot).
        while self._getters:
            getter = self._getters.popleft()
            if getter._value is not _PENDING:
                continue
            getter._ok = True
            getter._value = item
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            sim._lane.append((eid, getter, None))
            return
        self.items.append(item)

    def get(self) -> Event:
        # Inlined Event.__init__ (+ succeed on the items-ready branch).
        ev = Event.__new__(Event)
        ev.sim = self.sim
        ev.callbacks = []
        ev._ok = True
        ev._used = False
        if self.items:
            ev._value = self.items.popleft()
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            sim._lane.append((eid, ev, None))
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.items)
