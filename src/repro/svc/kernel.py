"""The service kernel: declarative RPC endpoints with unified accounting.

Every server stack in the reproduction (ZooKeeper, Lustre MDS/OSS, PVFS,
CMD) previously hand-rolled its own handler registration, in-flight
accounting, and counting wrappers — and they disagreed about whether
failed operations count. :class:`Service` centralizes that: handlers are
registered with per-method metadata (:class:`OpSpec`), requests pass
through a pluggable admission policy, and every completion — success,
error, or interrupt — is counted once and published as an
:class:`~repro.svc.trace.OpTrace` on the trace bus.

With the default :class:`~repro.svc.queue.DirectAdmission` policy the
instrumentation adds no simulator events, so a refactored server is
event-for-event identical to its hand-rolled predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Any, Callable, Dict, Generator, Optional

from ..sim.core import AnyOf
from ..sim.node import Node
from ..sim.rpc import DEFAULT_RESP_SIZE, RequestExpired, RpcAgent
from .queue import AdmissionPolicy, AdmissionReject, DirectAdmission
from .trace import NULL_BUS, OpTrace, TraceBus


@dataclass(frozen=True)
class OpSpec:
    """Per-method metadata declared at registration time."""

    method: str
    write: bool = False            # mutates durable state
    cost: float = 0.0              # nominal service demand (seconds)
    resp_size: int = DEFAULT_RESP_SIZE


class Service:
    """One RPC endpoint bound to a node, with admission + tracing.

    The underlying :class:`RpcAgent` stays available as ``.agent`` (and via
    the :meth:`call`/:meth:`cast` delegates) for the server's own outgoing
    traffic — a ZK leader streaming proposals, an MDS casting lock
    revocations.
    """

    def __init__(
        self,
        node: Node,
        endpoint: str,
        deployment: str = "svc",
        bus: Optional[TraceBus] = None,
        policy: Optional[AdmissionPolicy] = None,
        op_stats: Optional[dict] = None,
        shard: int = 0,
    ):
        self.node = node
        self.sim = node.sim
        self.endpoint = endpoint
        self.deployment = deployment
        self.shard = shard             # metadata shard this endpoint serves
        self.bus = bus if bus is not None else NULL_BUS
        self.policy = policy or DirectAdmission()
        self.specs: Dict[str, OpSpec] = {}
        self.inflight = 0              # admitted, not yet completed
        # Legacy per-server stats dict: the kernel maintains its "ops" key
        # so every stack counts requests identically (including failures).
        self._op_stats = op_stats
        self.agent = RpcAgent(node, endpoint)

    # -- registration ------------------------------------------------------
    def expose(self, method: str, handler: Callable, *, write: bool = False,
               cost: float = 0.0,
               resp_size: int = DEFAULT_RESP_SIZE) -> None:
        """Register ``handler(src, args)`` (a generator function) under
        admission control, counting, and tracing."""
        self.specs[method] = OpSpec(method, write=write, cost=cost,
                                    resp_size=resp_size)
        self.agent.register(method, self._instrumented(method, handler))

    def expose_fast(self, method: str, fn: Callable) -> None:
        """Register an inline cast handler (no admission/trace: fast-path
        bookkeeping like ZAB acks must not be queued or counted as ops)."""
        self.agent.register_fast(method, fn)

    # -- the one counted wrapper ------------------------------------------
    def _instrumented(self, method: str, handler: Callable) -> Callable:
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
            try:
                token = self.policy.admit(method)
            except AdmissionReject:
                self.bus.mark_rejected(self.deployment, self.endpoint, method)
                raise
            if token is not None:
                if deadline is None:
                    yield token
                else:
                    # Stop queueing at the deadline: cancel the claim and
                    # shed the request instead of serving a dead caller.
                    guard = self.sim.timeout(deadline - self.sim.now)
                    yield AnyOf(self.sim, (token, guard))
                    if not token.triggered:
                        self.policy.release(token)
                        self.bus.mark_expired(self.deployment,
                                              self.endpoint, method)
                        raise RequestExpired(method, deadline, self.sim.now)
            start = self.sim.now
            self.inflight += 1
            ok = False
            try:
                spec = self.specs.get(method)
                if deadline is None or spec is None or spec.write:
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
                self.policy.release(token)
                if self._op_stats is not None:
                    self._op_stats["ops"] = self._op_stats.get("ops", 0) + 1
                if self.bus is not NULL_BUS:    # nobody to read the trace
                    self.bus.record(OpTrace(self.deployment, self.endpoint,
                                            method, arrive, start,
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
    publishes an :class:`OpTrace` per call (client ops have no admission
    queue, so ``arrive == start``); ``retries_of()`` is sampled after each
    op to report the retry count of the client's fault-tolerance path.
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
