"""Shared retry machinery: token-bucket budget + decorrelated jitter, and
the one retry loop (``retry_call``) every client stack drives them with."""

import pytest

from repro.models.params import (FaultToleranceParams, LustreParams,
                                 PVFSParams)
from repro.resilience import RetryPolicy, build_retry, retry_call
from repro.sim import Cluster
from repro.sim.random import RandomStreams


def policy(**fields):
    """A policy over the back-end default (no timeout, retry, backoff or
    budget) with ``fields`` set."""
    return RetryPolicy(RandomStreams(0), "s",
                       FaultToleranceParams.backend(**fields))


def retry(pol, state, now=0.0):
    """Charge one failed attempt: may the operation try again?"""
    state.attempt += 1
    return not pol.exhausted(state, now)


def test_budget_disabled_is_unlimited():
    pol = policy(max_retries=100)
    state = pol.begin(0.0)
    assert all(retry(pol, state) for _ in range(100))
    assert pol.spent == 0 and pol.denied == 0


def test_budget_spends_and_denies():
    pol = policy(max_retries=100, retry_budget=2.0)
    state = pol.begin(0.0)
    assert retry(pol, state)
    assert retry(pol, state)
    assert not retry(pol, state)         # bucket empty
    assert pol.spent == 2 and pol.denied == 1


def test_budget_refills_on_success_up_to_cap(monkeypatch):
    monkeypatch.setattr(FaultToleranceParams, "retry_refill", 0.5)
    pol = policy(max_retries=100, retry_budget=1.0)
    state = pol.begin(0.0)
    assert retry(pol, state)
    assert not retry(pol, state)
    pol.on_success()                     # +0.5: still under a whole token
    assert not retry(pol, state)
    pol.on_success()                     # +0.5: one token available again
    assert retry(pol, state)
    for _ in range(10):                  # refill never exceeds the cap
        pol.on_success()
    assert retry(pol, state)
    assert not retry(pol, state)


def test_policy_exhausts_on_max_retries():
    pol = policy(max_retries=2)
    state = pol.begin(0.0)
    assert [retry(pol, state) for _ in range(3)] == [True, True, False]


def test_policy_exhausts_on_op_budget_deadline():
    pol = policy(max_retries=100, op_budget=5.0)
    state = pol.begin(10.0)
    state.attempt += 1
    assert not pol.exhausted(state, now=14.9)
    assert pol.exhausted(state, now=15.0)


def test_policy_exhausts_when_budget_denies():
    pol = policy(max_retries=100, retry_budget=1.0)
    state = pol.begin(0.0)
    assert retry(pol, state)                   # spends the only token
    assert not retry(pol, state)               # bucket empty -> give up
    assert pol.denied == 1


def test_backoff_matches_decorrelated_jitter_replay():
    """The policy must draw exactly the legacy sequence: uniform(base,
    3*prev) clamped to the cap, prev floored at base, one draw per sleep,
    all from the named stream."""
    streams = RandomStreams(7)
    pol = RetryPolicy(streams, "zk.client.x", FaultToleranceParams(
        max_retries=9, backoff_base=0.05, backoff_cap=0.4))
    state = pol.begin(0.0)
    sleeps = [pol.next_backoff(state) for _ in range(5)]

    rng = RandomStreams(7).stream("zk.client.x")
    prev = 0.05
    expected = []
    for _ in range(5):
        s = min(0.4, rng.uniform(0.05, 3.0 * prev))
        expected.append(s)
        prev = max(s, 0.05)
    assert sleeps == pytest.approx(expected)
    assert all(s <= 0.4 for s in sleeps)


def test_zero_base_backoff_never_draws():
    """backoff_base == 0 (the Lustre/PVFS default) must consume nothing
    from the stream — the replay-identical guarantee."""
    streams = RandomStreams(3)
    pol = RetryPolicy(streams, "lustre.client.c0",
                      FaultToleranceParams.backend(max_retries=4))
    state = pol.begin(0.0)
    assert [pol.next_backoff(state) for _ in range(4)] == [0.0] * 4
    # The stream is untouched: its next draw equals a fresh stream's first.
    assert streams.stream("lustre.client.c0").random() == \
        RandomStreams(3).stream("lustre.client.c0").random()


def test_policy_success_refills_budget(monkeypatch):
    monkeypatch.setattr(FaultToleranceParams, "retry_refill", 1.0)
    pol = policy(max_retries=9, retry_budget=1.0)
    assert retry(pol, pol.begin(0.0))
    pol.on_success()
    assert retry(pol, pol.begin(1.0))          # token restored


# -- the retry loop -----------------------------------------------------------
class Flaky(Exception):
    """The fake endpoint's retryable failure."""


class GaveUp(Exception):
    def __init__(self, endpoint, cause):
        super().__init__(endpoint)
        self.endpoint, self.cause = endpoint, cause


class Endpoint:
    """Fails its first ``k`` attempts after ``rtt`` seconds each, then
    answers; remembers where and when it was tried."""

    def __init__(self, sim, k, rtt=0.01, error=Flaky):
        self.sim, self.k, self.rtt, self.error = sim, k, rtt, error
        self.tried = []

    def attempt(self, endpoint):
        self.tried.append((endpoint, self.sim.now))
        yield self.sim.timeout(self.rtt)
        if len(self.tried) <= self.k:
            raise self.error(f"attempt {len(self.tried)}")
        return f"reply from {endpoint}"


def drive(k, fault=None, pick=lambda: "srv", rtt=0.01, error=Flaky,
          between=None):
    """One ``retry_call`` over a fresh single-node cluster; returns
    (result or raised exception, endpoint, state, policy, breakers, sim)."""
    cluster = Cluster(seed=5)
    node = cluster.add_node("n")
    fault = fault or FaultToleranceParams(backoff_base=0.0, max_retries=4)
    policy, breakers = build_retry(node, "t.client", fault)
    ep = Endpoint(cluster.sim, k, rtt, error)
    state = policy.begin(cluster.sim.now)
    out = []

    def runner():
        try:
            out.append((yield from retry_call(
                cluster.sim, policy, breakers, state, pick, ep.attempt,
                retry_on=(Flaky,), gave_up=GaveUp, between=between)))
        except Exception as exc:       # noqa: BLE001 - handed to the test
            out.append(exc)

    node.spawn(runner())
    cluster.sim.run()
    return out[0], ep, state, policy, breakers, cluster


def test_loop_retries_until_the_endpoint_answers():
    result, ep, state, _, breakers, _ = drive(k=3)
    assert result == "reply from srv"
    assert len(ep.tried) == 4 and state.attempt == 3
    assert state.endpoint == "srv"
    assert breakers.fastfails == 0


def test_loop_gives_up_with_the_callers_exception():
    """max_retries=4 allows five attempts; the sixth failure is mapped
    through ``gave_up`` with the endpoint and the last retryable error."""
    result, ep, state, _, _, _ = drive(k=99)
    assert isinstance(result, GaveUp)
    assert result.endpoint == "srv" and isinstance(result.cause, Flaky)
    assert str(result.cause) == "attempt 5"
    assert len(ep.tried) == 5 and state.attempt == 5


def test_non_retryable_error_propagates_with_the_state_intact():
    """Anything outside ``retry_on`` is the caller's to handle; the
    attempt count survives so the caller can re-enter the loop."""
    result, ep, state, _, _, _ = drive(k=99, error=KeyError)
    assert isinstance(result, KeyError)
    assert len(ep.tried) == 1 and state.attempt == 0


def test_between_runs_after_each_charged_failure_and_pick_is_reasked():
    servers = ["a", "b", "c"]
    cursor = [0]

    def fail_over():
        cursor[0] += 1

    result, ep, _, _, _, _ = drive(k=2, pick=lambda: servers[cursor[0]],
                                   between=fail_over)
    assert result == "reply from c"
    assert [endpoint for endpoint, _ in ep.tried] == ["a", "b", "c"]


def test_breaker_fast_fail_is_charged_as_an_attempt(monkeypatch):
    """Threshold 2: two real failures open the breaker; the remaining
    budget is burned by fast-fails that never reach the endpoint, and the
    give-up carries no cause."""
    monkeypatch.setattr(FaultToleranceParams, "breaker_threshold", 2)
    fault = FaultToleranceParams(backoff_base=0.0, max_retries=4,
                                 breaker_enabled=True, breaker_cooldown=10.0)
    result, ep, state, _, breakers, _ = drive(k=99, fault=fault)
    assert isinstance(result, GaveUp) and result.cause is None
    assert len(ep.tried) == 2              # only these were issued
    assert state.attempt == 5 and breakers.fastfails == 3
    assert breakers.breakers["srv"].state == "open"


def test_retry_budget_exhaustion_stops_the_loop_early():
    fault = FaultToleranceParams(backoff_base=0.0, max_retries=4,
                                 retry_budget=2.0)
    result, ep, state, policy, _, _ = drive(k=99, fault=fault)
    assert isinstance(result, GaveUp)
    assert len(ep.tried) == 3              # two tokens bought two retries
    assert policy.spent == 2 and policy.denied == 1


def test_op_budget_deadline_stops_the_loop():
    """0.1 s attempts against a 0.25 s per-op budget: the third failure
    lands past the deadline although retries remain."""
    fault = FaultToleranceParams(backoff_base=0.0, max_retries=50,
                                 op_budget=0.25)
    result, ep, state, _, _, cluster = drive(k=99, fault=fault, rtt=0.1)
    assert isinstance(result, GaveUp)
    assert len(ep.tried) == 3
    assert cluster.sim.now == pytest.approx(0.3)


def test_zero_backoff_loop_draws_nothing_and_never_sleeps():
    result, ep, _, policy, _, cluster = drive(k=3)
    assert result == "reply from srv"
    # Back-to-back attempts: each starts the instant the last one failed.
    assert [t for _, t in ep.tried] == pytest.approx([0.0, 0.01, 0.02, 0.03])
    assert cluster.streams.stream("t.client").random() == \
        RandomStreams(5).stream("t.client").random()


def test_backoff_sleeps_between_attempts_from_the_named_stream():
    fault = FaultToleranceParams(backoff_base=0.05, backoff_cap=0.4,
                                 max_retries=4)
    result, ep, _, _, _, _ = drive(k=2, fault=fault)
    assert result == "reply from srv"
    rng = RandomStreams(5).stream("t.client")
    first = min(0.4, rng.uniform(0.05, 3.0 * 0.05))
    second = min(0.4, rng.uniform(0.05, 3.0 * max(first, 0.05)))
    starts = [t for _, t in ep.tried]
    assert starts[1] - starts[0] == pytest.approx(0.01 + first)
    assert starts[2] - starts[1] == pytest.approx(0.01 + second)


def test_factory_reads_the_one_fault_policy():
    """Each preset reaches the policy, its budget and every breaker the
    board makes, through the one object."""
    node = Cluster(seed=0).add_node("n")
    for fault in (FaultToleranceParams(), FaultToleranceParams.backend(),
                  FaultToleranceParams.resilience_on(breaker_cooldown=2.5)):
        policy, breakers = build_retry(node, "s", fault)
        assert policy.fault is fault and breakers.fault is fault
        assert policy.tokens == fault.retry_budget
        assert policy.begin(0.0).prev_sleep == fault.backoff_base
        breaker = breakers.for_endpoint("srv")
        assert (breaker.threshold, breaker.cooldown) == \
            (fault.breaker_threshold, fault.breaker_cooldown)


def test_backend_default_never_times_out_never_retries_never_draws():
    """The Lustre/PVFS default, spelled once: every RPC goes out with no
    timeout and no deadline, the first failure is final, nothing sleeps,
    no retry is charged and no breaker opens."""
    assert LustreParams().fault == PVFSParams().fault == \
        FaultToleranceParams.backend()
    cluster = Cluster(seed=0)
    policy, breakers = build_retry(cluster.add_node("n"), "b",
                                   LustreParams().fault)
    state = policy.begin(3.0)
    assert state.bounds == {"timeout": None} and state.deadline is None
    state.attempt += 1
    assert policy.exhausted(state, now=3.0)
    assert policy.next_backoff(state) == 0.0
    policy.on_success()
    assert policy.tokens == 0.0 and policy.spent == policy.denied == 0
    for _ in range(10):
        breakers.on_failure("mds")
    assert breakers.allow("mds") and breakers.breakers == {}


def test_attempt_bounds_are_assembled_once_per_operation():
    """``timeout=`` always; ``deadline=`` (``start + op_budget``) only under
    deadline propagation — left out, a call inherits its process's."""
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    plain, _ = build_retry(node, "p", FaultToleranceParams(op_budget=2.0))
    assert plain.begin(1.0).bounds == {"timeout": 5.0}
    on, _ = build_retry(node, "q", FaultToleranceParams.resilience_on(
        request_timeout=0.4, op_budget=2.0))
    assert on.begin(1.0).bounds == {"timeout": 0.4, "deadline": 3.0}
    unbounded, _ = build_retry(node, "r", FaultToleranceParams.backend(
        deadline_propagation=True))
    assert unbounded.begin(1.0).bounds == {"timeout": None}
