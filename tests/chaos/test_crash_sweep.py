"""Crash the write-behind client at every event of a short script.

One deployment per event index ``k``: 3 ZooKeeper servers with failure
detection on their own nodes, one client node, local back-ends, seed 1,
the coherent cache off and on. The script (mkdir, three creates, an
unlink, flush) runs for ``k`` simulator steps, the client node crashes,
runs 3 s, recovers, runs 3 s, and the namespace audit must be clean. Whatever the crash cut short is
the log's bounded loss (``lost_ops``); an unreferenced physical file no
lost op accounts for is an ``orphan-fid``, and a name whose file is
missing is a ``dangling-mapping``: neither may appear at any ``k``.
"""

from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.models.params import AsyncParams, CacheParams, SimParams, ZKParams


def script(client):
    yield from client.mkdir("/d")
    for name in "abc":
        yield from client.create(f"/d/{name}")
    yield from client.unlink("/d/b")
    yield from client.flush()


def run_script(crash_at=None, cache=False):
    """Step the script ``crash_at`` events (all of them when None), then
    crash and recover the client node. Returns the number of steps taken
    and the deployment."""
    params = SimParams(zk=ZKParams(failure_detection=True),
                       cache=CacheParams(enabled=cache),
                       awrite=AsyncParams.async_on())
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


def _damaged_crash_points(cache):
    n, dep = run_script(cache=cache)
    assert dep.clients[0].wblog.stats["committed"] == 5
    assert audit_dufs(dep).ok
    damaged = {}
    for k in range(n + 1):
        report = audit_dufs(run_script(crash_at=k, cache=cache)[1])
        if not report.ok:
            damaged[k] = sorted({v.kind for v in report.violations})
    return n, damaged


def test_a_client_crash_at_any_event_leaves_the_audit_clean():
    n, damaged = _damaged_crash_points(cache=False)
    assert damaged == {}, f"{len(damaged)} of {n + 1} crash points"


def test_a_cached_client_crash_at_any_event_leaves_the_audit_clean():
    """The same sweep with the coherent cache on: the drain's primes of
    the creates it landed are crash points too."""
    n, damaged = _damaged_crash_points(cache=True)
    assert damaged == {}, f"{len(damaged)} of {n + 1} crash points"
