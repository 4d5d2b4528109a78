"""Per-endpoint admission policies for the service kernel.

A policy decides when an arrived request may begin service. ``admit()``
returns ``None`` for immediate admission (no simulator interaction at all,
so the direct policy is event-for-event identical to a bare
:class:`~repro.sim.rpc.RpcAgent`) or an event the request process must
yield before starting; ``release()`` hands the slot to the next waiter.

Policies:

- :class:`DirectAdmission` — unbounded; every request starts immediately
  (what every server did before the kernel existed).
- :class:`BoundedAdmission` — FIFO queue with at most ``capacity``
  requests in service (λFS-style explicit request queues; PVFS's
  event-loop ``server_cores`` limit).
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Simulator
from ..sim.resources import Request, Resource


class AdmissionReject(Exception):
    """The admission queue is full: the request is refused outright.

    Raised synchronously by ``admit()`` (no token is ever issued, so there
    is nothing to release) and marshalled back to the caller like any other
    handler error. Clients treat it as retryable — load-shedding, not
    failure — and their retry policy spaces out the re-offer.
    """

    def __init__(self, endpoint_method: str, depth: int):
        super().__init__(f"admission queue full for {endpoint_method} "
                         f"({depth} waiting)")
        self.depth = depth


class AdmissionPolicy:
    """Interface (and pass-through default) for admission policies."""

    name = "direct"

    def admit(self, method: str) -> Optional[Request]:
        """None = start service now; else an event to yield first.

        May raise :class:`AdmissionReject` instead (bounded policies with
        a queue limit); a rejected request holds no token.
        """
        return None

    def release(self, token: Optional[Request]) -> None:
        return

    @property
    def depth(self) -> int:
        """Requests currently waiting for admission."""
        return 0


class DirectAdmission(AdmissionPolicy):
    """Unbounded policy: admit everything instantly (pre-kernel behaviour)."""


class BoundedAdmission(AdmissionPolicy):
    """FIFO admission with a concurrency bound.

    ``max_queue`` (optional) caps the number of *waiting* requests:
    arrivals beyond it are refused with :class:`AdmissionReject` instead
    of queueing without bound — the difference between a server that
    degrades and one that builds an unbounded backlog under overload.
    """

    name = "bounded"

    def __init__(self, sim: Simulator, capacity: int,
                 max_queue: Optional[int] = None):
        self.resource = Resource(sim, capacity)
        self.max_queue = max_queue

    def admit(self, method: str) -> Optional[Request]:
        # Reject only when service is saturated AND the wait queue is at
        # its bound — max_queue=0 means "admit only into a free slot".
        if (self.max_queue is not None
                and len(self.resource.users) >= self.resource.capacity
                and len(self.resource.queue) >= self.max_queue):
            raise AdmissionReject(method, len(self.resource.queue))
        return self.resource.request()

    def release(self, token: Optional[Request]) -> None:
        if token is not None:
            self.resource.release(token)

    @property
    def depth(self) -> int:
        return len(self.resource.queue)
