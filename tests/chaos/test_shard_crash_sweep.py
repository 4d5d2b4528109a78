"""Crash a sharded client at every event of a cold-chain mkdir.

One deployment per event index ``k``: 4 shards of 2 ZooKeeper servers
with failure detection on their own nodes, one client node, local
back-ends, seed 1. The ancestors of a directory ``d`` whose anchor shard
lacks ``missing`` components of its chain are made first; the script
(mkdir ``d``, a create and a mkdir under it) then runs for ``k``
simulator steps, the client node crashes, runs 3 s, recovers, runs 3 s,
and the namespace audit must be clean. Each of the script's two
directories is left in one of the crash matrix's classes (MODEL.md §9,
C4): neither copy, the anchor only, the home copy only, or both. The
anchor's shard holds the missing placeholders exactly when it holds the
anchor (one multi writes them), and running the script again over the
residue heals every pair."""

from errno import EEXIST

import pytest

from repro.chaos.audit import audit_dufs, freshest_store
from repro.core import build_dufs_deployment
from repro.errors import FSError
from repro.models.params import SimParams, ZKParams
from tests.mds.test_sharded_mds import cold_chain_dir

#: One caller: a pool of at most one spare, plus its create in flight.
RESIDUE_BOUND = 1 + 1


def script(client, d):
    yield from client.mkdir(d)
    yield from client.create(f"{d}/f")
    yield from client.mkdir(f"{d}/sub")


def run_script(missing, crash_at=None):
    """Make the ancestors, step the script ``crash_at`` events (all of
    them when None), then crash and recover the client node. Returns the
    number of steps taken, the deployment and the directory chain."""
    params = SimParams(zk=ZKParams(failure_detection=True))
    dep = build_dufs_deployment(n_zk=8, n_shards=4, n_backends=2,
                                n_client_nodes=1, backend="local",
                                params=params, co_locate_zk=False, seed=1)
    sim, node, client = dep.cluster.sim, dep.client_nodes[0], dep.clients[0]
    sim.run(until=1.0)                  # every ensemble has elected
    *above, d = chain = cold_chain_dir(client.zk, missing)
    for path in above:
        dep.call(client.mkdir, path)
    done = node.shielded(script(client, d), "crash-sweep")
    steps = 0
    while not done.triggered and steps != crash_at:
        sim.step()
        steps += 1
    if crash_at is not None:
        node.crash()
        sim.run(until=sim.now + 3.0)
        node.recover()
        sim.run(until=sim.now + 3.0)
    return steps, dep, chain


def copies(dep, path):
    """``(home copy, anchor)`` presence of directory ``path``."""
    m = dep.clients[0].zk.map

    def on(shard):
        return freshest_store(dep.ensembles[shard]).exists(path) is not None
    return on(m.home_shard(path)), on(m.child_shard(path))


NEITHER, ANCHOR_ONLY, HOME_ONLY, BOTH = ((False, False), (False, True),
                                         (True, False), (True, True))


def heal(client, d):
    """Run the script again over the residue; EEXIST is an answer."""
    for op, path in ((client.mkdir, d), (client.create, f"{d}/f"),
                     (client.mkdir, f"{d}/sub")):
        try:
            yield from op(path)
        except FSError as exc:
            assert exc.err == EEXIST


@pytest.mark.parametrize("missing", [1, 2])
def test_a_crash_in_a_cold_chain_mkdir_leaves_a_c4_class(missing):
    n, dep, (*above, d) = run_script(missing)
    assert audit_dufs(dep).ok
    assert copies(dep, d) == copies(dep, f"{d}/sub") == BOTH
    shard = dep.clients[0].zk.map.child_shard(d)
    damaged, classes, residue = {}, set(), set()
    for k in range(n + 1):
        _, dep, _ = run_script(missing, crash_at=k)
        report = audit_dufs(dep)
        if not report.ok:
            damaged[k] = sorted({v.kind for v in report.violations})
        residue.add(report.lost_spares)
        classes.update((copies(dep, d), copies(dep, f"{d}/sub")))
        # One multi writes the placeholders and the anchor: all or none.
        built = {freshest_store(dep.ensembles[shard]).exists(q) is not None
                 for q in above[-missing:]}
        assert built == {copies(dep, d)[1]}
        # A mkdir over the residue heals the pair.
        dep.call(heal, dep.clients[0], d)
        assert copies(dep, d) == copies(dep, f"{d}/sub") == BOTH
        assert audit_dufs(dep).ok
    assert damaged == {}, f"{len(damaged)} of {n + 1} crash points"
    assert max(residue) <= RESIDUE_BOUND
    assert classes >= {NEITHER, HOME_ONLY, BOTH}
