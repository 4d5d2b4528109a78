"""Unified request-resilience layer (``repro.resilience``).

One place for the request-lifecycle machinery of every client stack: the
retry loop with decorrelated-jitter backoff under a token-bucket *retry
budget* (:mod:`.retry`) and per-endpoint circuit breakers
(:mod:`.breaker`). Deadline propagation itself lives in the simulator RPC
layer (:class:`~repro.sim.rpc.RpcAgent` caps each attempt at the caller's
remaining budget); this package holds the client-side policy objects.

Everything is pure bookkeeping over ``sim.now`` — none of these classes
schedules simulator events of its own, so the policy
``FaultToleranceParams.backend()`` (no timeout, no retry, no backoff,
unlimited budget, breakers off) leaves a run event-for-event identical to
one without the layer.
"""

from .breaker import BreakerBoard, CircuitBreaker
from .retry import RetryPolicy, RetryState, build_retry, retry_call

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "RetryPolicy",
    "RetryState",
    "build_retry",
    "retry_call",
]
