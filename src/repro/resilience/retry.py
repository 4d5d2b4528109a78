"""Shared retry machinery: one policy, one loop, one factory.

The ZooKeeper, Lustre and PVFS clients all retry through
:func:`retry_call` over objects built by :func:`build_retry`. The pieces:

- :class:`RetryBudget` — a per-client token bucket in the style of gRPC's
  retry throttling: every retry spends a token, every success refills a
  fraction of one. Under a persistent outage or overload the bucket
  drains and the client stops amplifying load (the retry-storm cure);
  during healthy operation successes keep it full and retries are free.
- :class:`RetryPolicy` — per-operation attempt accounting (max attempts,
  optional wall-clock budget), the timeout/deadline bounds every attempt's
  RPC carries, plus the decorrelated-jitter backoff the ZK client has
  always used: ``sleep = min(cap, uniform(base, 3 * prev))`` drawn from a
  named random stream so replay is deterministic.
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


class RetryBudget:
    """Token bucket bounding retries across all of one client's ops.

    ``cap <= 0`` disables the budget entirely (always allows retries) —
    the default, preserving legacy behaviour. A dry bucket raises
    nothing: :meth:`RetryPolicy.exhausted` says so and :func:`retry_call`
    ends through ``gave_up`` with the last attempt's error.
    """

    def __init__(self, cap: float = 0.0, refill: float = 0.1):
        self.cap = cap
        self.refill = refill
        self.tokens = cap
        self.spent = 0          # retries charged (observability)
        self.denied = 0         # retries refused for want of a token

    @property
    def enabled(self) -> bool:
        return self.cap > 0.0

    def try_spend(self) -> bool:
        """Charge one retry; False (and no charge) if the bucket is dry."""
        if not self.enabled:
            return True
        if self.tokens < 1.0:
            self.denied += 1
            return False
        self.tokens -= 1.0
        self.spent += 1
        return True

    def on_success(self) -> None:
        if self.enabled:
            self.tokens = min(self.cap, self.tokens + self.refill)


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
    sleep?*, *am I out of time?*
    """

    def __init__(
        self,
        streams,                      # RandomStreams (named-stream registry)
        stream_name: str,
        max_retries: int = 0,
        backoff_base: float = 0.0,
        backoff_cap: float = 1.0,
        op_budget: float = 0.0,       # per-op wall-clock bound; 0 = none
        budget: Optional[RetryBudget] = None,
        request_timeout: Optional[float] = None,   # per RPC; None = none
        propagate_deadline: bool = False,
    ):
        self.streams = streams
        self.stream_name = stream_name
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.op_budget = op_budget
        self.budget = budget or RetryBudget()
        self.request_timeout = request_timeout
        self.propagate_deadline = propagate_deadline

    def begin(self, now: float) -> RetryState:
        deadline = now + self.op_budget if self.op_budget else None
        bounds = {"timeout": self.request_timeout}
        if self.propagate_deadline and deadline is not None:
            # Caps every attempt at the op's remaining budget, and rides
            # the request so the server's nested RPCs inherit the cap.
            # Left out, a call inherits the ambient deadline of its
            # process instead (``None`` would opt out).
            bounds["deadline"] = deadline
        return RetryState(self.backoff_base, deadline, bounds)

    def exhausted(self, state: RetryState, now: float) -> bool:
        """Call after ``state.attempt += 1``: True = give up, re-raise."""
        if state.attempt > self.max_retries:
            return True
        if state.deadline is not None and now >= state.deadline:
            return True
        if not self.budget.try_spend():
            return True
        return False

    def next_backoff(self, state: RetryState) -> float:
        """Decorrelated jitter: ``min(cap, uniform(base, 3 * prev))``.

        Draws nothing when no backoff is configured, so the zero-backoff
        policy touches no RNG stream (replay-identical to legacy loops).
        """
        if self.backoff_base <= 0.0 and state.prev_sleep <= 0.0:
            return 0.0
        rng = self.streams.stream(self.stream_name)
        sleep = min(self.backoff_cap,
                    rng.uniform(self.backoff_base, 3.0 * state.prev_sleep))
        state.prev_sleep = max(sleep, self.backoff_base)
        return sleep

    def on_success(self) -> None:
        self.budget.on_success()


def build_retry(node, stream_name: str,
                policy) -> Tuple[RetryPolicy, BreakerBoard]:
    """One client's retry policy and breaker board from its fault policy
    (:class:`~repro.models.params.FaultToleranceParams`)."""
    retry = RetryPolicy(
        node.cluster.streams, stream_name, max_retries=policy.max_retries,
        backoff_base=policy.backoff_base, backoff_cap=policy.backoff_cap,
        op_budget=policy.op_budget,
        budget=RetryBudget(policy.retry_budget, policy.retry_refill),
        request_timeout=policy.request_timeout,
        propagate_deadline=policy.deadline_propagation)
    breakers = BreakerBoard(node.sim, policy.breaker_threshold,
                            policy.breaker_cooldown,
                            enabled=policy.breaker_enabled)
    return retry, breakers


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
