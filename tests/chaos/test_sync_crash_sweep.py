"""Crash the client at every event of a short script, in either write mode.

One deployment per event index ``k``: 3 ZooKeeper servers with failure
detection on their own nodes, one client node, local back-ends, seed 1,
the coherent cache off and on. A script runs for ``k`` simulator steps,
the client node crashes, runs 3 s, recovers, runs 3 s, and the namespace
audit must be clean. The synchronous scripts are a mkdir, three creates
and a stat; or a create, an unlink and a create. The write-behind one is
a mkdir, three creates, an unlink and a flush: it is acked op by op and
drained behind the caller.

A synchronous create takes the mount's spare, a file made ahead of it,
and starts the next; an unlink returns once the name is gone and
reclaims the file in the background. A write-behind create makes its
file in the drain before its znode, and a drained unlink reclaims the
file once its name is gone. So a crash can leave files no name maps to:
the spares, the files of the creates in flight and those of the
reclaims in flight. The client lists their FIDs for the auditor
(``lost_spares``), by one rule for both write modes; any other
unreferenced file is an ``orphan-fid``, and a name whose file is missing
is a ``dangling-mapping``. Neither may appear at any ``k``, and the
residue is at most the script's file ops in flight: for a synchronous
script, the pool (one spare, one caller) plus the caller's create in
flight, plus its reclaim in flight when the script unlinks.
"""

import pytest

from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.models.params import AsyncParams, CacheParams, SimParams, ZKParams


def three_creates(client):
    yield from client.mkdir("/d")
    for name in "abc":
        yield from client.create(f"/d/{name}")
    yield from client.stat("/d/b")


def an_unlink(client):
    yield from client.create("/f")
    yield from client.unlink("/f")
    yield from client.create("/g")


def written_behind(client):
    yield from client.mkdir("/d")
    for name in "abc":
        yield from client.create(f"/d/{name}")
    yield from client.unlink("/d/b")
    yield from client.flush()


#: Each script: whether its mount writes behind, the files it leaves
#: named, its residue bound and the largest residue a crash leaves. A
#: synchronous script's bound is one caller's pool of at most one spare,
#: plus its create in flight, plus its reclaim in flight when it unlinks;
#: its unlink's reclaim ends before the next create's spare and its own
#: file exist at once. The write-behind script's bound is its four file
#: ops, all of which may be in flight at once.
SCRIPTS = {"three-creates": (three_creates, False, 3, 1 + 1, 2),
           "an-unlink": (an_unlink, False, 1, 1 + 1 + 1, 2),
           "written-behind": (written_behind, True, 2, 3 + 1, 3)}


def run_script(script, behind, crash_at=None, cache=False):
    """Step the script ``crash_at`` events (all of them when None), then
    crash and recover the client node. Returns the number of steps taken
    and the deployment."""
    params = SimParams(zk=ZKParams(failure_detection=True),
                       cache=CacheParams(enabled=cache),
                       awrite=AsyncParams(enabled=behind))
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


def sweep(name, cache):
    """Run the script whole, then crash the client at each of its
    events: every audit must be clean, and the residues seen must be
    0 up to the script's peak, within its bound."""
    script, behind, named, bound, peak = SCRIPTS[name]
    pool = 0 if behind else 1          # only a synchronous mount has spares
    n, dep = run_script(script, behind, cache=cache)
    if behind:                         # every op drained and committed
        assert dep.clients[0].wblog.stats["committed"] == 5
    report = audit_dufs(dep)
    assert report.ok and (report.spares, report.lost_spares) == (pool, 0)
    assert report.checked_files == named + pool
    damaged, residue = {}, set()
    for k in range(n + 1):
        report = audit_dufs(run_script(script, behind, k, cache)[1])
        if not report.ok:
            damaged[k] = sorted({v.kind for v in report.violations})
        assert report.spares == 0       # a crash empties the pool
        residue.add(report.lost_spares)
    assert damaged == {}, f"{len(damaged)} of {n + 1} crash points"
    assert residue == set(range(peak + 1)) and peak <= bound


@pytest.mark.parametrize("name, cache", [
    ("three-creates", False), ("three-creates", True),
    ("an-unlink", False), ("an-unlink", True)],
    ids=["uncached", "cached", "unlink-uncached", "unlink-cached"])
def test_a_sync_client_crash_at_any_event_leaves_the_audit_clean(name, cache):
    """The write-behind script's sweep runs in ``test_crash_sweep.py``."""
    sweep(name, cache)
