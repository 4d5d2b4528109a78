"""Per-endpoint circuit breakers for the client stacks.

Classic three-state machine (closed → open → half-open), implemented as
pure bookkeeping over ``sim.now`` — opening a breaker schedules nothing;
the cooldown is checked lazily on the next ``allow()``. A breaker that is
never tripped (or a board whose policy has ``breaker_enabled`` off) adds
no events and no RNG draws, so default-off runs replay byte-identically.

Fast-failing against a known-dead endpoint is what turns a crashed ZK
server or MDS from "every request burns a full RPC timeout" into "one
probe per cooldown". A refused attempt raises nothing: :func:`~repro.
resilience.retry.retry_call` charges it like a failed one, and once the
policy is exhausted ends the loop through the client's ``gave_up`` —
``ConnectionLossError`` for ZooKeeper, ``FSError(EIO)`` for Lustre/PVFS.
"""

from __future__ import annotations

from typing import Dict


class CircuitBreaker:
    """One endpoint's breaker: trips after ``threshold`` consecutive
    failures, cools down for ``cooldown`` seconds, then admits a single
    half-open probe whose outcome closes or re-opens it."""

    __slots__ = ("sim", "threshold", "cooldown", "failures", "state",
                 "opened_at", "probing", "trips")

    def __init__(self, sim, threshold: int, cooldown: float):
        self.sim = sim
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.state = "closed"
        self.opened_at = 0.0
        self.probing = False
        self.trips = 0            # times the breaker opened (observability)

    def allow(self) -> bool:
        """May a request be issued to this endpoint right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.sim.now - self.opened_at >= self.cooldown:
                self.state = "half_open"
                self.probing = True
                return True       # the one half-open probe
            return False
        # half_open: one probe in flight at a time
        if not self.probing:
            self.probing = True
            return True
        return False

    def on_success(self) -> None:
        self.failures = 0
        self.probing = False
        self.state = "closed"

    def on_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open":
            self._trip()          # probe failed: straight back to open
        elif self.state == "closed" and self.failures >= self.threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.opened_at = self.sim.now
        self.probing = False
        self.trips += 1


class BreakerBoard:
    """Lazy endpoint → breaker map shared by one client, tuned by its
    fault policy (:class:`~repro.models.params.FaultToleranceParams`):
    ``breaker_enabled``, ``breaker_threshold`` and ``breaker_cooldown``."""

    def __init__(self, sim, fault):
        self.sim = sim
        self.fault = fault
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.fastfails = 0        # requests refused on an open breaker

    def for_endpoint(self, endpoint: str) -> CircuitBreaker:
        br = self.breakers.get(endpoint)
        if br is None:
            br = CircuitBreaker(self.sim, self.fault.breaker_threshold,
                                self.fault.breaker_cooldown)
            self.breakers[endpoint] = br
        return br

    def allow(self, endpoint: str) -> bool:
        if not self.fault.breaker_enabled \
                or self.for_endpoint(endpoint).allow():
            return True
        self.fastfails += 1
        return False

    def on_success(self, endpoint: str) -> None:
        if self.fault.breaker_enabled:
            self.for_endpoint(endpoint).on_success()

    def on_failure(self, endpoint: str) -> None:
        if self.fault.breaker_enabled:
            self.for_endpoint(endpoint).on_failure()

    def trips(self) -> int:
        return sum(br.trips for br in self.breakers.values())
