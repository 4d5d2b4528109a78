"""A synchronous client returns once a file's name is gone; the physical
file it named is reclaimed by a process of its own on the client node.

The write-behind client keeps the unlink inside the drained op, which
holds the file as in flight until it returns; these tests pin the
synchronous side: the back-end file still exists when ``unlink`` (or a
``rename`` over a file) returns, is gone once the simulation drains,
and a crash in between leaves that one file as crash residue the client
lists for the auditor — never a name without its file.
"""

import pytest

from repro.chaos.audit import audit_dufs, freshest_store, physical_files
from repro.core import build_dufs_deployment
from repro.core.mapping import physical_path
from repro.core.metadata import FilePayload, decode_payload
from repro.sim.core import AllOf


def _deployment(**kwargs):
    return build_dufs_deployment(n_zk=3, n_backends=2, backend="local",
                                 **kwargs)


def _files(dep):
    return sorted((i, p) for i, be in enumerate(dep.backends)
                  for p in physical_files(be))


def _fid(dep, path):
    payload = decode_payload(freshest_store(dep.ensemble).get(path)[0])
    assert isinstance(payload, FilePayload)
    return payload.fid


def _spares(dep, client):
    """The physical files of ``client``'s live spares, as ``_files``
    lists them."""
    return sorted((client.files.mapping.backend_for(fid),
                   physical_path(fid, client.files.layout))
                  for fid in client.files._spares)


def _client_at(dep, role):
    at = 0 if role == "leading" else 1
    assert dep.ensemble.servers[at].node is dep.client_nodes[at]
    assert dep.ensemble.servers[at].role == role
    return dep.clients[at], dep.client_nodes[at]


@pytest.mark.parametrize("role", ["leading", "following"])
def test_unlink_returns_before_its_back_end_file_is_reclaimed(role):
    dep = _deployment(n_client_nodes=3)
    sim = dep.cluster.sim
    client, node = _client_at(dep, role)
    sim.run(until=node.spawn(client.create("/f")))
    sim.run()
    held = _files(dep)
    spare = _spares(dep, client)
    assert len(held) == 1 + len(spare) == 2
    sim.run(until=node.spawn(client.unlink("/f")))
    assert freshest_store(dep.ensemble).exists("/f") is None
    assert _files(dep) == held          # the name is gone, the file not yet
    sim.run()
    assert _files(dep) == spare
    assert audit_dufs(dep).ok


@pytest.mark.parametrize("role", ["leading", "following"])
def test_rename_over_a_file_reclaims_the_overwritten_file_after_return(role):
    dep = _deployment(n_client_nodes=3)
    sim = dep.cluster.sim
    client, node = _client_at(dep, role)
    for path in ("/a", "/b"):
        sim.run(until=node.spawn(client.create(path)))
    sim.run()
    moved, overwritten = _fid(dep, "/a"), _fid(dep, "/b")
    sim.run(until=node.spawn(client.rename("/a", "/b")))
    assert freshest_store(dep.ensemble).exists("/a") is None
    assert _fid(dep, "/b") == moved
    ppaths = [p for _, p in _files(dep)]
    # Still there:
    assert physical_path(overwritten, client.files.layout) in ppaths
    sim.run()
    assert _files(dep) == sorted(
        [(client.files.mapping.backend_for(moved),
          physical_path(moved, client.files.layout))] + _spares(dep, client))
    assert len(_spares(dep, client)) == 1
    assert audit_dufs(dep).ok


def test_a_crash_after_unlink_returned_leaks_only_that_file():
    """The client node dies before its reclaim ran: the name is gone, so
    the audit finds no dangling mapping, and the file it leaves is the
    crash's residue like the pool's spare, not an orphan."""
    dep = _deployment(n_client_nodes=1, co_locate_zk=False)
    sim, node, client = dep.cluster.sim, dep.client_nodes[0], dep.clients[0]
    for path in ("/keep", "/f"):
        sim.run(until=node.spawn(client.create(path)))
    sim.run()
    fid = _fid(dep, "/f")
    sim.run(until=node.spawn(client.unlink("/f")))
    node.crash()
    sim.run()
    report = audit_dufs(dep)
    assert report.ok
    # The pool's spare and the unlinked file:
    assert (report.spares, report.lost_spares) == (0, 2)
    assert fid in client.files.residue()[1]


def test_a_callers_next_unlink_waits_for_its_own_previous_reclaim(monkeypatch):
    """A back-end slower than the namespace still paces each caller: its
    next unlink waits for its previous reclaim, never for another
    caller's, so when the callers finish one file each is still being
    reclaimed."""
    dep = _deployment(n_client_nodes=1, co_locate_zk=False)
    sim, node, client = dep.cluster.sim, dep.client_nodes[0], dep.clients[0]
    paths = [[f"/c{c}.{i}" for i in range(3)] for c in range(2)]
    for path in sum(paths, []):
        sim.run(until=node.spawn(client.create(path)))
    sim.run()
    slow = 0.5
    for backend in client.backends:
        def unlink(ppath, fast=backend.unlink):
            yield sim.timeout(slow)
            return (yield from fast(ppath))
        monkeypatch.setattr(backend, "unlink", unlink)

    def caller(mine):
        for path in mine:
            yield from client.unlink(path)

    start = sim.now
    callers = [node.spawn(caller(mine)) for mine in paths]
    sim.run(until=AllOf(sim, callers))
    assert 2 * slow <= sim.now - start < 3 * slow
    spare = _spares(dep, client)
    assert len(_files(dep)) == 2 + len(spare) == 3
    sim.run()
    assert _files(dep) == spare
    assert audit_dufs(dep).ok
