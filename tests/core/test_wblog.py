"""Write-behind metadata updates: ack decoupling, ordering, barriers,
deferred errors, backpressure, and the byte-identical-when-off pin."""

import hashlib

import pytest

from repro.core import build_dufs_deployment
from repro.core.wblog import PendingOp, WriteBehindLog
from repro.errors import EEXIST, ENOENT, ENOTEMPTY, FSError
from repro.models.params import AsyncParams
from repro.svc import TraceBus
from repro.workloads.mdtest import MdtestConfig, run_mdtest

from .conftest import DUFSHarness

#: sha256 over every OpTrace of the pinned replay below, recorded on the
#: pre-write-behind tree (verified equal against the seed commit's code).
#: Async OFF must keep this byte-identical: no wblog, no overlay traffic,
#: no extra simulator events — not merely "similar numbers". Re-record
#: deliberately (and say why in the commit) if the *core* simulation
#: changes; the write-behind path itself must never shift it.
GOLDEN_DIGEST = "33f47b76095ddfa2383ab80a1d903bd7d78491f7d56193c53e579cf5264a5089"


@pytest.fixture
def adufs():
    return DUFSHarness(awrite=AsyncParams.async_on(), seed=0)


def _wblog(h, i=0):
    return h.dep.clients[i].wblog


def op(seq, kind, path):
    return PendingOp(seq, kind, path, b"", None, False)


# -- dependency waves (pure) --------------------------------------------------
def test_waves_keep_unrelated_ops_concurrent():
    batch = [op(1, "create", "/a"), op(2, "create", "/b"),
             op(3, "create", "/c")]
    assert WriteBehindLog._waves(batch) == [batch]


def test_waves_split_on_path_conflicts_in_program_order():
    a, ax, ax2, b = (op(1, "create", "/a"), op(2, "create", "/a/x"),
                     op(3, "delete", "/a/x"), op(4, "create", "/b"))
    waves = WriteBehindLog._waves([a, ax, ax2, b])
    assert waves == [[a], [ax], [ax2, b]]
    # Conflicting pairs always land in strictly increasing waves.
    index = {o.seq: i for i, w in enumerate(waves) for o in w}
    assert index[1] < index[2] < index[3]


def test_waves_ancestor_conflicts_both_directions():
    parent_then_child = WriteBehindLog._waves(
        [op(1, "create", "/d"), op(2, "create", "/d/f")])
    child_then_parent = WriteBehindLog._waves(
        [op(1, "delete", "/d/f"), op(2, "delete", "/d")])
    assert len(parent_then_child) == 2
    assert len(child_then_parent) == 2


# -- ack decoupling -----------------------------------------------------------
def test_wblog_absent_when_disabled(dufs):
    assert all(c.wblog is None for c in dufs.dep.clients)

    def main():
        errors = yield from dufs.dep.clients[0].flush()
        ok = yield from dufs.dep.clients[0].fsync("/nope")
        return errors, ok

    errors, ok = dufs.run(main())
    assert errors == [] and ok is True


def test_async_ack_is_decoupled_from_quorum_commit(adufs):
    c = adufs.dep.clients[0]
    sim = adufs.cluster.sim

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        t0 = sim.now
        for i in range(20):
            yield from c.create(f"/d/f{i}")
        return sim.now - t0

    ack_window = adufs.run(main())
    # 20 acks cost client CPU plus the (still synchronous) physical
    # creates — not 20 quorum round trips at ~1.6 ms each.
    assert ack_window < 5e-3
    assert _wblog(adufs).stats["acked"] >= 20
    adufs.settle(2.0)
    assert len(_wblog(adufs)) == 0
    s = _wblog(adufs).stats
    assert s["committed"] == s["acked"] and s["rejected"] == 0
    # The drain really committed: a fresh synchronous client sees all 20.
    plain = adufs.dep.clients[1]
    names = adufs.run(plain.readdir("/d"), node_index=1)
    assert sorted(e.name for e in names) == sorted(f"f{i}" for i in range(20))


def test_drain_coalesces_into_batches(adufs):
    c = adufs.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        for i in range(32):
            yield from c.create(f"/d/f{i}")
        yield from c.flush()

    adufs.run(main())
    adufs.settle(0.1)       # the barrier fires inside the final flush,
    b = _wblog(adufs).batch_stats   # before the Batcher tallies it
    assert b["items"] >= 32
    assert b["flushes"] < b["items"]        # group commit, not one-by-one


def test_read_your_writes_before_commit(adufs):
    c = adufs.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        # Still pending: served from the overlay, visible immediately.
        st = yield from c.stat("/d/f")
        names = yield from c.readdir("/d")
        yield from c.unlink("/d/f")
        names_after = yield from c.readdir("/d")
        try:
            yield from c.stat("/d/f")
            raised = None
        except FSError as exc:
            raised = exc.errno
        return st, [e.name for e in names], \
            [e.name for e in names_after], raised

    st, names, names_after, raised = adufs.run(main())
    assert st is not None
    assert names == ["f"] and names_after == []
    assert raised == ENOENT
    assert c.mdcache.counters["overlay_hits"] > 0


def test_conflicting_ops_commit_in_program_order(adufs):
    c = adufs.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.unlink("/d/f")
        yield from c.create("/d/f")     # create -> delete -> create again
        errors = yield from c.flush()
        st = yield from c.stat("/d/f")
        return errors, st

    errors, st = adufs.run(main())
    assert errors == []
    assert st is not None
    assert _wblog(adufs).stats["rejected"] == 0


# -- barriers and deferred errors ---------------------------------------------
def test_flush_reports_deferred_rmdir_error(adufs):
    c = adufs.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.flush()
        yield from c.rmdir("/d")        # acked; the quorum will refuse it
        return (yield from c.flush())

    errors = adufs.run(main())
    assert len(errors) == 1
    path, exc = errors[0]
    assert path == "/d" and isinstance(exc, FSError)
    assert exc.errno == ENOTEMPTY
    assert _wblog(adufs).stats["rejected"] == 1
    # The optimistic removal was rolled back: the directory still lists.
    names = adufs.run(c.readdir("/d"))
    assert [e.name for e in names] == ["f"]


def test_fsync_surfaces_only_its_own_paths_error(adufs):
    c = adufs.dep.clients[0]

    def main():
        for d in ("/a", "/b"):
            yield from c.mkdir(d)
            yield from c.create(f"{d}/f")
        yield from c.flush()
        yield from c.rmdir("/a")
        yield from c.rmdir("/b")
        try:
            yield from c.fsync("/a")
            errno = None
        except FSError as exc:
            errno = exc.errno
        rest = yield from c.flush()
        return errno, rest

    errno, rest = adufs.run(main())
    assert errno == ENOTEMPTY
    assert [p for p, _ in rest] == ["/b"]   # /a's error was consumed


def test_cross_client_create_conflict_rolls_back_physical(adufs):
    c0, c1 = adufs.dep.clients[0], adufs.dep.clients[1]

    def winner():
        yield from c1.create("/x")
        yield from c1.flush()

    adufs.run(winner(), node_index=1)
    files_before = sum(adufs.backend_file_counts())

    def loser():
        yield from c0.create("/x")      # acked: c0 has no cached view of /x
        return (yield from c0.flush())

    errors = adufs.run(loser())
    assert len(errors) == 1
    assert errors[0][0] == "/x" and errors[0][1].errno == EEXIST
    adufs.settle(1.0)                   # fire-and-forget physical rollback
    assert sum(adufs.backend_file_counts()) == files_before
    assert _wblog(adufs).stats["rejected"] == 1


def test_backpressure_bounds_the_acked_window():
    h = DUFSHarness(awrite=AsyncParams.async_on(max_pending=4), seed=0)
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        for i in range(40):
            yield from c.create(f"/d/f{i}")
        yield from c.flush()

    h.run(main())
    s = c.wblog.stats
    assert s["max_pending"] <= 4
    assert s["stalls"] > 0
    assert s["committed"] == s["acked"]


def test_rename_forces_a_drain_barrier(adufs):
    c = adufs.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")     # both still pending
        yield from c.rename("/d", "/e")
        names = yield from c.readdir("/e")
        return [e.name for e in names], len(c.wblog)

    names, outstanding_at_rename = adufs.run(main())
    assert names == ["f"]


# -- the off-switch pin -------------------------------------------------------
def test_async_off_replay_is_byte_identical():
    bus = TraceBus(keep_events=True)
    dep = build_dufs_deployment(n_zk=5, n_backends=2, n_client_nodes=2,
                                backend="local", seed=0, bus=bus,
                                awrite=AsyncParams())    # explicit OFF
    cfg = MdtestConfig(n_procs=4, items_per_proc=10,
                       phases=("dir_create", "file_create", "file_stat",
                               "file_remove"))
    run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
    h = hashlib.sha256()
    for ev in bus.events:
        h.update(repr((ev.deployment, ev.endpoint, ev.method, ev.arrive,
                       ev.start, ev.end, ev.ok, ev.src, ev.retries,
                       ev.shard)).encode())
    assert len(bus.events) == 1038
    assert h.hexdigest() == GOLDEN_DIGEST
