"""The service kernel: declarative RPC endpoints with unified accounting.

Every server stack in the reproduction (ZooKeeper, Lustre MDS/OSS, PVFS,
CMD, GIGA+) previously hand-rolled its own handler registration,
in-flight accounting, and counting wrappers — and they disagreed about
whether failed operations count. :class:`Service` centralizes that: a
request is checked against its caller's deadline, served, and every
completion — success, error, or interrupt — is counted once and published
as an :class:`~repro.svc.trace.OpTrace` on the trace bus.

A request starts service the instant it arrives; where it waits is for a
core, inside ``Node.cpu_work``, i.e. inside its service time. Without a
deadline the wrapper adds no simulator events, so a kernel-built server is
event-for-event identical to one on a bare :class:`RpcAgent`.
"""

from __future__ import annotations

from sys import intern
from typing import Any, Callable, Generator, Optional

from ..sim.core import AnyOf
from ..sim.node import Node
from ..sim.rpc import RequestExpired, RpcAgent
from .trace import NULL_BUS, OpTrace, TraceBus


class Service:
    """One RPC endpoint bound to a node, with counting + tracing.

    The underlying :class:`RpcAgent` stays available as ``.agent`` for the
    server's own outgoing traffic — a ZK leader streaming proposals, an
    MDS casting lock revocations.
    """

    def __init__(
        self,
        node: Node,
        endpoint: str,
        deployment: str = "svc",
        bus: Optional[TraceBus] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.endpoint = endpoint
        self.deployment = deployment
        self.shard = 0                 # metadata shard this endpoint serves
        self.bus = bus if bus is not None else NULL_BUS
        self.inflight = 0              # in service, not yet completed
        self.agent = RpcAgent(node, endpoint)

    # -- registration ------------------------------------------------------
    def expose(self, method: str, handler: Callable, *,
               write: bool = False) -> None:
        """Register ``handler(src, args)`` (a generator function) under
        deadline shedding, counting, and tracing. ``write`` marks a method
        that mutates durable state: it is never cancelled mid-service."""
        self.agent.register(method,
                            self._instrumented(method, handler, write))

    def expose_fast(self, method: str, fn: Callable) -> None:
        """Register an inline cast handler (no trace: fast-path
        bookkeeping like ZAB acks must not be counted as ops)."""
        self.agent.register_fast(method, fn)

    # -- the one counted wrapper ------------------------------------------
    def _instrumented(self, method: str, handler: Callable,
                      write: bool) -> Callable:
        # Interned once per exposed method: the per-op trace label must not
        # be re-formatted on every completion.
        key = intern(f"{self.deployment}/{self.endpoint}.{method}")

        def wrapper(src: str, args: Any) -> Generator:
            arrive = self.sim.now
            # Ambient deadline, propagated from the caller's _Request by
            # the RPC dispatcher onto this handler process. None (the
            # default) reproduces the pre-resilience kernel event-for-event.
            proc = self.sim._active
            deadline = proc.deadline if proc is not None else None
            if deadline is not None and arrive >= deadline:
                # Dead on arrival: the caller has already timed out.
                self.bus.mark_expired(self.deployment, self.endpoint, method)
                raise RequestExpired(method, deadline, arrive)
            self.inflight += 1
            ok = False
            try:
                if deadline is None or write:
                    # Writes are never cancelled mid-service: once in the
                    # replication/commit pipeline, abandoning them could
                    # lose state another replica already acknowledged.
                    result = yield from handler(src, args)
                else:
                    result = yield from self._cancellable(
                        method, handler, src, args, deadline)
                ok = True
                return result
            finally:
                self.inflight -= 1
                if self.bus is not NULL_BUS:    # nobody to read the trace
                    self.bus.record(OpTrace(self.deployment, self.endpoint,
                                            method, arrive, arrive,
                                            self.sim.now, ok, src,
                                            shard=self.shard), key=key)

        return wrapper

    def _cancellable(self, method: str, handler: Callable, src: str,
                     args: Any, deadline: float) -> Generator:
        """Run a read handler raced against its deadline.

        The handler body runs in a shielded child process (inheriting the
        deadline ambiently); if the deadline fires first the child is
        interrupted — ``cpu_work``/``disk_io`` release their claims via
        ``finally`` — and the request is accounted as expired.
        """
        child = self.node.shielded(handler(src, args),
                                   f"{self.endpoint}.{method}.body")
        guard = self.sim.timeout(max(0.0, deadline - self.sim.now))
        yield AnyOf(self.sim, (child, guard))
        if child.is_alive:
            child.interrupt("deadline")
            self.bus.mark_expired(self.deployment, self.endpoint, method)
            raise RequestExpired(method, deadline, self.sim.now)
        # The handler's answer or error; an Interrupt means the node died
        # under us, and _serve swallows it.
        return child.value.result()


def instrument_client(obj: Any, methods, bus: TraceBus, deployment: str,
                      endpoint: str,
                      retries_of: Optional[Callable[[], int]] = None) -> None:
    """Put a client library's ops on the same trace bus as the servers.

    Rebinds each named generator method of ``obj`` with a wrapper that
    publishes an :class:`OpTrace` per call; ``retries_of()`` is sampled
    after each op to report the retry count of the client's
    fault-tolerance path.
    """

    def wrap(name: str, fn: Callable) -> Callable:
        key = intern(f"{deployment}/{endpoint}.{name}")

        def traced(*args, **kwargs) -> Generator:
            t0 = obj.sim.now
            ok = False
            try:
                result = yield from fn(*args, **kwargs)
                ok = True
                return result
            finally:
                bus.record(OpTrace(deployment, endpoint, name, t0, t0,
                                   obj.sim.now, ok,
                                   retries=retries_of() if retries_of else 0),
                           key=key)

        return traced

    for name in methods:
        setattr(obj, name, wrap(name, getattr(obj, name)))
