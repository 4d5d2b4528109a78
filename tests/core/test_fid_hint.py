"""A ``stat`` of a path this mount created, and has not stat'ed since,
starts the back-end stat of the FID it made beside the znode read. The
hint is never trusted: these cases change the namespace behind the
mount's back and check that the stat answers for the file the znode
names, wastes at most the one back-end stat it started, and leaves no
child running. A mount with the coherent cache keeps no hints."""

import pytest

from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.errors import EIO, ENOENT, FSError
from repro.models.params import AsyncParams, CacheParams
from repro.sim.core import Interrupt

#: How long a slowed back-end call takes: far longer than a znode read.
SLOW = 0.5


def _deployment(**kwargs):
    return build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                 backend="local", co_locate_zk=False,
                                 **kwargs)


def _count(monkeypatch, dep, method, delay=0.0):
    """Wrap ``method`` of every client's back-end mounts: the physical
    paths it was called on, in order, each call first waiting ``delay``."""
    calls = []
    sim = dep.cluster.sim
    mounts = {id(be): be for c in dep.clients for be in c.backends}
    for be in mounts.values():
        def wrapped(ppath, *args, inner=getattr(be, method)):
            calls.append(ppath)
            if delay:
                yield sim.timeout(delay)
            return (yield from inner(ppath, *args))
        monkeypatch.setattr(be, method, wrapped)
    return calls


def _live_stat_children(dep):
    return [p for node in dep.client_nodes for p in node._procs
            if p.name == "dufs-stat" and not p.triggered]


def _run(dep, at, gen):
    """Run ``gen`` on client node ``at``; its value, or the FSError."""
    def shielded():
        try:
            return (yield from gen)
        except FSError as exc:
            return exc
    return dep.cluster.sim.run(until=dep.client_nodes[at].spawn(shielded()))


def _sized(client, path, size):
    yield from client.create(path)
    yield from client.write(path, 0, b"x" * size)


def test_a_remote_unlink_and_recreate_costs_one_wasted_back_end_stat(
        monkeypatch):
    dep = _deployment()
    a, b = dep.clients
    _run(dep, 0, _sized(a, "/f", 3))
    old = a.files._fids["/f"]
    _run(dep, 1, b.unlink("/f"))
    _run(dep, 1, _sized(b, "/f", 7))
    stats = _count(monkeypatch, dep, "stat")
    st = _run(dep, 0, a.stat("/f"))
    assert st.st_size == 7 and st.is_file
    assert len(stats) == 2 and stats[0] != stats[1]     # old FID, then new
    assert _live_stat_children(dep) == []
    assert old and "/f" not in a.files._fids     # the stat spent it, kept none


def test_a_rename_over_the_hinted_path_costs_one_wasted_back_end_stat(
        monkeypatch):
    dep = _deployment()
    a, b = dep.clients
    _run(dep, 0, _sized(a, "/f", 3))
    _run(dep, 1, _sized(b, "/g", 11))
    _run(dep, 1, b.rename("/g", "/f"))
    stats = _count(monkeypatch, dep, "stat")
    st = _run(dep, 0, a.stat("/f"))
    assert st.st_size == 11
    assert len(stats) == 2 and stats[0] != stats[1]
    assert _live_stat_children(dep) == []
    again = _count(monkeypatch, dep, "stat")
    assert _run(dep, 0, a.stat("/f")).st_size == 11
    assert len(again) == 1          # unhinted: one back-end stat inline


def test_a_hinted_stat_that_ends_in_enoent_waits_for_its_child(monkeypatch):
    dep = _deployment()
    a, b = dep.clients
    sim = dep.cluster.sim
    _run(dep, 0, a.create("/f"))
    _run(dep, 1, b.unlink("/f"))
    sim.run()                       # b's reclaim too
    stats = _count(monkeypatch, dep, "stat", delay=SLOW)
    start = sim.now
    err = _run(dep, 0, a.stat("/f"))
    assert isinstance(err, FSError) and err.err == ENOENT
    assert len(stats) == 1 and sim.now - start >= SLOW
    assert _live_stat_children(dep) == []
    assert "/f" not in a.files._fids


def test_a_hinted_path_on_a_degraded_back_end_fails_eio_with_no_call(
        monkeypatch):
    dep = _deployment()
    a = dep.clients[0]
    _run(dep, 0, a.create("/f"))
    a.files.mark_backend_down(a.files.mapping.backend_for(a.files._fids["/f"]))
    stats = _count(monkeypatch, dep, "stat")
    err = _run(dep, 0, a.stat("/f"))
    assert isinstance(err, FSError) and err.err == EIO
    assert stats == [] and _live_stat_children(dep) == []


def test_an_undrained_write_behind_create_is_stat_ed_from_its_pending_op(
        monkeypatch):
    dep = _deployment(awrite=AsyncParams.async_on())
    a = dep.clients[0]
    _count(monkeypatch, dep, "create", delay=SLOW)  # hold the drain back
    stats = _count(monkeypatch, dep, "stat")

    def create_then_stat():
        yield from a.create("/f", mode=0o640)
        return (yield from a.stat("/f"))

    st = _run(dep, 0, create_then_stat())
    assert st.is_file and st.st_mode & 0o7777 == 0o640
    # One create in flight, whose file the drain still owes:
    assert [ev.triggered for ev in a.files._creating.values()] == [False]
    assert stats == [] and _live_stat_children(dep) == []


def test_a_crash_during_a_hinted_stat_forgets_every_hint(monkeypatch):
    dep = _deployment()
    a, node = dep.clients[0], dep.client_nodes[0]
    sim = dep.cluster.sim
    for path in ("/f", "/g"):
        _run(dep, 0, a.create(path))
    sim.run()
    _count(monkeypatch, dep, "stat", delay=SLOW)
    proc = node.shielded(a.stat("/f"))
    sim.run(until=sim.now + SLOW / 2)
    assert _live_stat_children(dep) and not proc.triggered
    node.crash()
    sim.run(until=sim.now + 1.0)
    assert isinstance(proc.value.error, Interrupt)
    assert a.files._fids == {} and _live_stat_children(dep) == []
    node.recover()
    _run(dep, 0, a.create("/h"))
    st = _run(dep, 0, a.stat("/g"))
    assert st.is_file and a.files._fids.keys() == {"/h"}
    assert audit_dufs(dep).ok


def test_a_stat_records_no_hint(monkeypatch):
    """Hints come only from this mount's creates: a mount that stats
    another client's files, however often, keeps none of them, and its
    own file's hint goes with the first stat."""
    dep = _deployment()
    a, b = dep.clients
    _run(dep, 0, _sized(a, "/f", 3))
    _run(dep, 1, _sized(b, "/g", 5))
    stats = _count(monkeypatch, dep, "stat")

    def stat_all():
        sizes = []
        for path in ("/g", "/g", "/f", "/f"):
            sizes.append((yield from a.stat(path)).st_size)
        return sizes

    assert _run(dep, 0, stat_all()) == [5, 5, 3, 3]
    assert len(stats) == 4 and a.files._fids == {}


@pytest.mark.parametrize("op", ["unlink", "rename"])
def test_unlink_and_rename_drop_the_hint(op):
    dep = _deployment()
    a = dep.clients[0]
    _run(dep, 0, a.create("/f"))
    _run(dep, 0, a.unlink("/f") if op == "unlink" else a.rename("/f", "/h"))
    assert "/f" not in a.files._fids and "/h" not in a.files._fids


def test_a_mount_with_the_coherent_cache_keeps_no_hints(monkeypatch):
    dep = _deployment(cache=CacheParams.caching_on())
    a, b = dep.clients
    _run(dep, 0, _sized(a, "/f", 3))
    _run(dep, 1, _sized(b, "/g", 5))
    stats = _count(monkeypatch, dep, "stat", delay=SLOW)

    def stat_all():
        sizes = []
        for path in ("/f", "/g", "/g"):
            sizes.append((yield from a.stat(path)).st_size)
        return sizes

    assert _run(dep, 0, stat_all()) == [3, 5, 5]
    assert len(stats) == 3 and a.files._fids == {} and b.files._fids == {}
    assert _live_stat_children(dep) == []
