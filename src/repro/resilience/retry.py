"""Shared retry machinery: one policy, one loop, one factory.

The ZooKeeper, Lustre and PVFS clients all retry through
:func:`retry_call` over objects built by :func:`build_retry` from the
client's one :class:`~repro.models.params.FaultToleranceParams`. The
pieces:

- :class:`RetryPolicy` — per-operation attempt accounting (max attempts,
  optional wall-clock budget), the timeout/deadline bounds every attempt's
  RPC carries, the decorrelated-jitter backoff the ZK client has always
  used (``sleep = min(cap, uniform(base, 3 * prev))``, drawn from a named
  random stream so replay is deterministic), and a per-client token-bucket
  *retry budget* in the style of gRPC's retry throttling: every retry
  spends a token, every success refills a fraction of one. Under a
  persistent outage or overload the bucket drains and the client stops
  amplifying load (the retry-storm cure); during healthy operation
  successes keep it full and retries are free.
- :func:`retry_call` — the breaker → attempt → back-off loop itself,
  parameterised by what differs between the stacks: how to pick the
  endpoint, which exceptions are retryable, what to do between attempts
  and which exception means "gave up".

With ``backoff_base = 0`` and no budget the policy performs no RNG draws
and yields no events — byte-identical to the legacy immediate-retry loops.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Tuple

from .breaker import BreakerBoard


class RetryState:
    """Per-operation mutable attempt state handed out by a policy."""

    __slots__ = ("attempt", "prev_sleep", "deadline", "endpoint", "bounds")

    def __init__(self, prev_sleep: float, deadline: Optional[float],
                 bounds: dict):
        self.attempt = 0
        self.prev_sleep = prev_sleep
        self.deadline = deadline
        self.endpoint = None        # where the latest attempt went
        #: ``timeout=`` (and, under deadline propagation, ``deadline=``) of
        #: every ``RpcAgent.call`` this operation issues.
        self.bounds = bounds


class RetryPolicy:
    """Retry accounting + backoff shared by the client stacks: the three
    questions :func:`retry_call` asks — *may I retry?*, *how long do I
    sleep?*, *am I out of time?* — answered from ``fault``.

    The retry budget's bucket holds ``fault.retry_budget`` tokens
    (``<= 0``: no bucket, retries are never refused). A dry bucket raises
    nothing: :meth:`exhausted` says so and :func:`retry_call` ends through
    ``gave_up`` with the last attempt's error.
    """

    def __init__(self, streams, stream_name: str, fault):
        self.streams = streams        # RandomStreams (named-stream registry)
        self.stream_name = stream_name
        self.fault = fault
        self.tokens = fault.retry_budget
        self.spent = 0          # retries charged (observability)
        self.denied = 0         # retries refused for want of a token

    def begin(self, now: float) -> RetryState:
        fault = self.fault
        deadline = now + fault.op_budget if fault.op_budget else None
        bounds = {"timeout": fault.request_timeout}
        if fault.deadline_propagation and deadline is not None:
            # Caps every attempt at the op's remaining budget, and rides
            # the request so the server's nested RPCs inherit the cap.
            # Left out, a call inherits the ambient deadline of its
            # process instead (``None`` would opt out).
            bounds["deadline"] = deadline
        return RetryState(fault.backoff_base, deadline, bounds)

    def exhausted(self, state: RetryState, now: float) -> bool:
        """Call after ``state.attempt += 1``: True = give up, re-raise.
        Otherwise the retry is charged one token of the budget."""
        if state.attempt > self.fault.max_retries:
            return True
        if state.deadline is not None and now >= state.deadline:
            return True
        if self.fault.retry_budget > 0.0:
            if self.tokens < 1.0:
                self.denied += 1
                return True
            self.tokens -= 1.0
            self.spent += 1
        return False

    def next_backoff(self, state: RetryState) -> float:
        """Decorrelated jitter: ``min(cap, uniform(base, 3 * prev))``.

        Draws nothing when no backoff is configured, so the zero-backoff
        policy touches no RNG stream (replay-identical to legacy loops).
        """
        base = self.fault.backoff_base
        if base <= 0.0 and state.prev_sleep <= 0.0:
            return 0.0
        rng = self.streams.stream(self.stream_name)
        sleep = min(self.fault.backoff_cap,
                    rng.uniform(base, 3.0 * state.prev_sleep))
        state.prev_sleep = max(sleep, base)
        return sleep

    def on_success(self) -> None:
        """Refill ``fault.retry_refill`` of a token, up to the cap."""
        cap = self.fault.retry_budget
        if cap > 0.0:
            self.tokens = min(cap, self.tokens + self.fault.retry_refill)


def build_retry(node, stream_name: str,
                policy) -> Tuple[RetryPolicy, BreakerBoard]:
    """One client's retry policy and breaker board from its fault policy
    (:class:`~repro.models.params.FaultToleranceParams`)."""
    return (RetryPolicy(node.cluster.streams, stream_name, policy),
            BreakerBoard(node.sim, policy))


def retry_call(sim, policy: RetryPolicy, breakers: BreakerBoard,
               state: RetryState, pick: Callable[[], str],
               attempt: Callable[[str], Generator], retry_on,
               gave_up: Callable[[str, Optional[BaseException]],
                                 BaseException],
               between: Optional[Callable[[], None]] = None) -> Generator:
    """Drive one operation: breaker check, attempt, back-off, repeat.

    ``pick()`` names the endpoint of the next attempt (asked every time
    round, so a fail-over is followed) and ``attempt(endpoint)`` is the
    generator that tries once. An exception in ``retry_on`` charges the
    attempt against ``state``, as does an open breaker (no RPC, no
    timeout burned on a known-dead endpoint); once the policy is
    exhausted the loop raises ``gave_up(endpoint, exc)`` — ``exc`` is
    None when the last straw was a breaker fast-fail. ``between()`` runs
    after a charged failure, before the back-off sleep. Any other
    exception propagates with ``state`` intact: the caller may deal with
    it and re-enter with the same state to continue the accounting.
    """
    while True:
        endpoint = state.endpoint = pick()
        exc = None
        if breakers.allow(endpoint):
            try:
                result = yield from attempt(endpoint)
            except retry_on as failure:
                exc = failure
                breakers.on_failure(endpoint)
            else:
                breakers.on_success(endpoint)
                policy.on_success()
                return result
        state.attempt += 1
        if policy.exhausted(state, sim.now):
            raise gave_up(endpoint, exc) from None
        if between is not None:
            between()
        sleep = policy.next_backoff(state)
        if sleep > 0:
            yield sim.timeout(sleep)
