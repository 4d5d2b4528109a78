"""Circuit breaker state machine: closed -> open -> half-open -> ..."""

import pytest

from repro.models.params import FaultToleranceParams
from repro.resilience import BreakerBoard, CircuitBreaker


class Clock:
    """Breakers only read ``sim.now`` — a bare clock is enough."""

    def __init__(self):
        self.now = 0.0


def test_breaker_trips_after_consecutive_failures():
    clk = Clock()
    br = CircuitBreaker(clk, threshold=3, cooldown=1.0)
    assert br.allow()
    br.on_failure()
    br.on_failure()
    assert br.allow()                  # still closed at 2/3
    br.on_failure()
    assert br.state == "open" and br.trips == 1
    assert not br.allow()              # fast-fail while open


def test_success_resets_consecutive_failure_count():
    clk = Clock()
    br = CircuitBreaker(clk, threshold=3, cooldown=1.0)
    br.on_failure()
    br.on_failure()
    br.on_success()                    # streak broken
    br.on_failure()
    br.on_failure()
    assert br.state == "closed"


def test_half_open_admits_one_probe_then_closes_on_success():
    clk = Clock()
    br = CircuitBreaker(clk, threshold=1, cooldown=1.0)
    br.on_failure()
    assert br.state == "open"
    clk.now = 0.5
    assert not br.allow()              # cooldown not elapsed
    clk.now = 1.0
    assert br.allow()                  # the single half-open probe
    assert br.state == "half_open"
    assert not br.allow()              # second concurrent probe refused
    br.on_success()
    assert br.state == "closed"
    assert br.allow()


def test_half_open_probe_failure_reopens():
    clk = Clock()
    br = CircuitBreaker(clk, threshold=1, cooldown=1.0)
    br.on_failure()
    clk.now = 1.0
    assert br.allow()
    br.on_failure()                    # probe failed
    assert br.state == "open" and br.trips == 2
    assert not br.allow()              # new cooldown starts at the re-trip
    clk.now = 2.0
    assert br.allow()


@pytest.fixture
def trip_at_once(monkeypatch):
    monkeypatch.setattr(FaultToleranceParams, "breaker_threshold", 1)


def test_board_tracks_endpoints_independently(trip_at_once):
    clk = Clock()
    board = BreakerBoard(clk, FaultToleranceParams.resilience_on())
    board.on_failure("a")
    assert not board.allow("a")
    assert board.allow("b")            # unrelated endpoint stays closed
    assert {ep: br.state for ep, br in board.breakers.items()} == \
        {"a": "open", "b": "closed"}
    assert board.trips() == 1


def test_disabled_board_is_inert(trip_at_once):
    clk = Clock()
    board = BreakerBoard(clk, FaultToleranceParams())
    for _ in range(10):
        board.on_failure("a")
    assert board.allow("a")
    assert board.breakers == {}        # nothing even allocated
    assert board.trips() == 0
