"""Hedged reads: race a delayed duplicate of an idempotent lookup.

After waiting a delay tied to the operation's recent latency tail (the
p95 by default, per "The Tail at Scale"), a second copy of the request is
issued to a *different* server and the first successful reply wins; the
loser is interrupted and its late response is discarded by the RPC layer
(the rpc_id waiter is popped on cancellation, never recycled). Restricted
by callers to idempotent reads — a hedged write could be acknowledged
twice — and off by default: no tracker, no extra processes, no events.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator

from ..sim.core import AnyOf, Interrupt


class LatencyTracker:
    """Rolling latency window; ``delay()`` is the hedging trigger point.

    Until ``min_samples`` observations arrive the configured default
    delay is used — hedging against an empty window would fire blind.
    """

    def __init__(self, window: int = 128, quantile: float = 0.95,
                 min_samples: int = 16, default_delay: float = 0.05):
        self.samples: deque = deque(maxlen=window)
        self.quantile = quantile
        self.min_samples = min_samples
        self.default_delay = default_delay

    def record(self, dt: float) -> None:
        self.samples.append(dt)

    def delay(self) -> float:
        if len(self.samples) < self.min_samples:
            return self.default_delay
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, int(self.quantile * len(ordered)))
        return ordered[idx]


def hedged(node, primary: Callable[[], Generator],
           secondary: Callable[[], Generator],
           delay: float) -> Generator:
    """Race ``primary()`` against a ``delay``-deferred ``secondary()``.

    Returns ``(value, hedge_won)`` from the first attempt to *succeed*;
    if one attempt fails the other is awaited, and only when both fail is
    the primary's error (or the sole error seen) re-raised. The losing
    in-flight attempt is interrupted. Both attempts are shielded children
    (nothing they raise reaches the strict simulator) and inherit the
    ambient deadline of the calling process like any spawned child.
    """
    sim = node.sim
    p1 = node.shielded(primary(), "hedge.primary")
    p2 = None
    timer = sim.timeout(max(0.0, delay))
    yield AnyOf(sim, (p1, timer))
    if p1.is_alive:
        p2 = node.shielded(secondary(), "hedge.secondary")
        yield AnyOf(sim, (p1, p2))
    while True:
        for proc, other, hedge_won in ((p1, p2, False), (p2, p1, True)):
            if proc is not None and not proc.is_alive \
                    and proc.value.error is None:
                if other is not None and other.is_alive:
                    other.interrupt("hedge-lost")
                return proc.value.value, hedge_won
        # No success yet: wait for whichever attempt is still running.
        if p1.is_alive:
            yield p1
        elif p2 is not None and p2.is_alive:
            yield p2
        else:
            break
    # Both attempts concluded without success: surface the primary's
    # error, falling back to the hedge's (an interrupted attempt carries
    # none — re-raise Interrupt so the caller's own teardown runs).
    for proc in (p1, p2):
        if proc is not None and not isinstance(proc.value.error, Interrupt):
            raise proc.value.error
    raise Interrupt("hedge-cancelled")
