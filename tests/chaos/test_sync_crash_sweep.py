"""Crash the synchronous client at every event of a short script.

One deployment per event index ``k``: 3 ZooKeeper servers with failure
detection on their own nodes, one client node, local back-ends, seed 1,
the coherent cache off and on. The script (mkdir, three creates, a stat)
runs for ``k`` simulator steps, the client node crashes, runs 3 s,
recovers, runs 3 s, and the namespace audit must be clean. A create
takes the mount's spare, a file made ahead of it, and starts the next,
so a crash can leave files no name maps to: the spares and the file of
the create in flight. The client lists their FIDs for the auditor
(``lost_spares``); any other unreferenced file is an ``orphan-fid``, and
a name whose file is missing is a ``dangling-mapping``. Neither may
appear at any ``k``, and the residue is at most the pool (one spare, one
caller) plus the caller's create in flight.
"""

import pytest

from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.models.params import CacheParams, SimParams, ZKParams

#: One caller: a pool of at most one spare, plus its create in flight.
RESIDUE_BOUND = 1 + 1


def script(client):
    yield from client.mkdir("/d")
    for name in "abc":
        yield from client.create(f"/d/{name}")
    yield from client.stat("/d/b")


def run_script(crash_at=None, cache=False):
    """Step the script ``crash_at`` events (all of them when None), then
    crash and recover the client node. Returns the number of steps taken
    and the deployment."""
    params = SimParams(zk=ZKParams(failure_detection=True),
                       cache=CacheParams(enabled=cache))
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=1,
                                backend="local", params=params,
                                co_locate_zk=False, seed=1)
    sim, node = dep.cluster.sim, dep.client_nodes[0]
    sim.run(until=1.0)                  # the ensemble has elected
    done = node.shielded(script(dep.clients[0]), "crash-sweep")
    steps = 0
    while not done.triggered and steps != crash_at:
        sim.step()
        steps += 1
    if crash_at is not None:
        node.crash()
        sim.run(until=sim.now + 3.0)
        node.recover()
        sim.run(until=sim.now + 3.0)
    return steps, dep


@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
def test_a_sync_client_crash_at_any_event_leaves_the_audit_clean(cache):
    n, dep = run_script(cache=cache)
    report = audit_dufs(dep)
    assert report.ok and (report.spares, report.lost_spares) == (1, 0)
    assert report.checked_files == 3 + 1
    damaged, residue = {}, set()
    for k in range(n + 1):
        report = audit_dufs(run_script(crash_at=k, cache=cache)[1])
        if not report.ok:
            damaged[k] = sorted({v.kind for v in report.violations})
        assert report.spares == 0       # a crash empties the pool
        residue.add(report.lost_spares)
    assert damaged == {}, f"{len(damaged)} of {n + 1} crash points"
    assert max(residue) <= RESIDUE_BOUND
    assert residue == set(range(RESIDUE_BOUND + 1))
