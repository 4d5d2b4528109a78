"""Unified request-resilience layer (``repro.resilience``).

One place for the request-lifecycle machinery of every client stack: the
retry loop with decorrelated-jitter backoff under a token-bucket *retry
budget* (:mod:`.retry`), per-endpoint circuit breakers (:mod:`.breaker`),
and hedged reads for idempotent lookups (:mod:`.hedge`). Deadline
propagation itself lives in the simulator RPC layer
(:class:`~repro.sim.rpc.RpcAgent` and the svc kernel); this package holds
the client-side policy objects.

Everything is pure bookkeeping over ``sim.now`` — none of these classes
schedules simulator events of its own, so a policy whose knobs are at
their defaults (no backoff, unlimited budget, breakers off, hedging off)
leaves a run event-for-event identical to one without the layer.
"""

from .breaker import BreakerBoard, BreakerOpenError, CircuitBreaker
from .hedge import LatencyTracker, hedged
from .retry import (RetryBudget, RetryBudgetExhausted, RetryPolicy,
                    RetryState, build_retry, retry_call)

__all__ = [
    "BreakerBoard",
    "BreakerOpenError",
    "CircuitBreaker",
    "LatencyTracker",
    "hedged",
    "RetryBudget",
    "RetryBudgetExhausted",
    "RetryPolicy",
    "RetryState",
    "build_retry",
    "retry_call",
]
