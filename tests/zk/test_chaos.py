"""Chaos: random single-server crash/recover cycles during writes.

The core ZAB guarantee, stress-tested: every write the client saw succeed
must exist on every live replica afterwards, whatever the failure schedule
(leader or follower, any timing), as long as a quorum survives at each
moment.
"""

import random

import pytest

from repro.models.params import FaultToleranceParams, ZKParams
from repro.zk.errors import NodeExistsError, ZKError

from .conftest import ZKHarness
from .test_failures import wait_for_leader


def start_random_crashes(seed):
    """Spawn a 24-create writer and three random crash/recover cycles on
    a 3-server ensemble. Returns the harness, the two processes, and the
    lists the run fills: acknowledged creates and crashed sids."""
    params = ZKParams(failure_detection=True)
    h = ZKHarness(n_servers=3, n_nodes=3, seed=seed, params=params,
                  static_leader=None)
    wait_for_leader(h)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=1.5, max_retries=10))
    rng = random.Random(seed)
    acknowledged = []
    crashes = []

    def writer():
        for i in range(24):
            try:
                yield from cli.create(f"/chaos-{i}", b"v")
                acknowledged.append(i)
            except NodeExistsError:
                # A retried create whose first attempt landed: it exists,
                # so it still counts as acknowledged.
                acknowledged.append(i)
            except ZKError:
                pass  # unacknowledged; may or may not exist
            yield h.cluster.sim.timeout(0.05)

    def chaos():
        for _ in range(3):
            yield h.cluster.sim.timeout(rng.uniform(0.2, 0.5))
            victim = rng.choice(h.ensemble.servers)
            if victim.node.down:
                continue
            victim.node.crash()
            crashes.append(victim.sid)
            yield h.cluster.sim.timeout(rng.uniform(0.8, 1.5))
            victim.node.recover()

    procs = [h.client_nodes[0].spawn(writer()),
             h.client_nodes[0].spawn(chaos())]
    return h, procs, acknowledged, crashes


# 23 is the schedule that cost the parent 91 s of tier-1 (ROADMAP item 1).
@pytest.mark.parametrize("seed", [*range(20), 23])
def test_acknowledged_writes_survive_random_crashes(seed):
    h, procs, acknowledged, _ = start_random_crashes(seed)
    h.cluster.sim.run(until=h.cluster.sim.now + 20.0)
    assert all(p.triggered for p in procs)
    h.settle(5.0)

    live = [s for s in h.ensemble.servers if not s.node.down]
    assert len(live) == 3
    assert len(acknowledged) >= 12, "chaos starved the writer entirely"
    for s in live:
        for i in acknowledged:
            assert s.store.exists(f"/chaos-{i}") is not None, \
                (seed, s.sid, i)
    assert h.ensemble.converged()
