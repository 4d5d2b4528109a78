"""Write-behind metadata updates: ack decoupling, ordering, barriers,
deferred errors, backpressure, and the byte-identical-when-off pin."""

import hashlib

import pytest

from repro.core import build_dufs_deployment
from repro.core.wblog import DRAIN_WINDOW, WriteBehindLog
from repro.errors import EEXIST, ENOENT, ENOTEMPTY, FSError
from repro.models.params import AsyncParams
from repro.sim import Cluster
from repro.svc import TraceBus
from repro.workloads.mdtest import MdtestConfig, run_mdtest

from .conftest import DUFSHarness

#: sha256 over every OpTrace of the pinned replay below, recorded on the
#: pre-write-behind tree (verified equal against the seed commit's code).
#: Async OFF must keep this byte-identical: no wblog, no overlay traffic,
#: no extra simulator events — not merely "similar numbers". Re-record
#: deliberately (and say why in the commit) if the *core* simulation
#: changes; the write-behind path itself must never shift it. Re-recorded
#: when each client began making its hash-directory chain at mount: the
#: same 1,038 OpTraces with earlier file-create timings (14,945 -> 14,943
#: simulator events). Re-recorded when a synchronous unlink began
#: returning before its back-end unlink, which runs in a process of its
#: own: the same OpTraces, earlier file-remove timings (14,943 -> 14,983
#: simulator events, one per remove). Re-recorded when a file stat with
#: a FID hint began starting its back-end stat beside its znode read:
#: the same OpTraces, earlier file-stat timings (14,983 -> 15,023
#: simulator events, one per stat). Re-recorded when a synchronous file
#: create began taking a spare, its physical file made ahead of it, and
#: starting the next: the same OpTraces, earlier file-create timings
#: (15,023 -> 15,050 simulator events). Re-recorded when a follower
#: began answering a forwarded write at the instant it applies it, not
#: at the next log_delay tick: earlier write timings, and 1,038 -> 1,044
#: OpTraces (15,050 -> 14,937 simulator events), three more parent
#: reads, since a mkdir or create reads its parent directory until its
#: client has seen it and the earlier acks interleave the four
#: processes differently.
GOLDEN_DIGEST = "77f75d96c950f15b4771d484cf2b2720942164eb1cb9c7ebfaac0aff19a391e6"


@pytest.fixture
def adufs():
    return DUFSHarness(awrite=AsyncParams.async_on(), seed=0)


def _wblog(h, i=0):
    return h.dep.clients[i].wblog


class _Service:
    """An op-runner stub: each op takes ``delays[path]`` (default 1 ms),
    lands, and records the commit order."""

    def __init__(self, sim, delays):
        self.sim = sim
        self.delays = delays
        self.committed = []

    def run(self, op):
        yield self.sim.timeout(self.delays.get(op.path, 1e-3))
        self.committed.append((op.kind, op.path))


class _Overlay:
    def overlay_put(self, *args):
        pass

    overlay_commit = overlay_reject = overlay_forget = overlay_put

    def prime(self, path):
        return
        yield


def _stub_log(**delays):
    """A log on one bare node over a stub service (``delays`` keyed by
    path with the leading ``/`` dropped)."""
    cluster = Cluster(seed=0)
    node = cluster.add_node("client")
    svc = _Service(cluster.sim, {f"/{k}": v for k, v in delays.items()})
    return cluster.sim, node, WriteBehindLog(node, svc.run, _Overlay()), svc


def _append_all(sim, node, log, ops):
    """Append ``ops`` (kind, path) back to back; returns the paths in
    flight and still queued right after the last append."""
    def main():
        for kind, path in ops:
            yield from log.append(kind, path)
        return ([ops[seq - 1][1] for seq in log._inflight],
                [o.path for o in log._queue])

    return sim.run(until=node.spawn(main()))


# -- the streamed drain window (stub service) ---------------------------------
def test_pump_keeps_unrelated_ops_in_flight_together():
    sim, node, log, svc = _stub_log()
    inflight, queued = _append_all(
        sim, node, log, [("create", "/a"), ("create", "/b"),
                         ("create", "/c")])
    assert inflight == ["/a", "/b", "/c"] and queued == []


def test_pump_commits_conflicting_ops_in_program_order():
    sim, node, log, svc = _stub_log()
    ops = [("create", "/a"), ("create", "/a/x"), ("delete", "/a/x"),
           ("create", "/b")]
    inflight, queued = _append_all(sim, node, log, ops)
    # /a/x waits for /a; /b waits behind it to keep program order.
    assert inflight == ["/a"] and queued == ["/a/x", "/a/x", "/b"]
    sim.run()
    order = svc.committed
    assert sorted(order) == sorted(ops)
    assert order.index(ops[0]) < order.index(ops[1]) < order.index(ops[2])
    assert len(log) == 0 and log.stats["committed"] == 4


def test_pump_serializes_both_ancestor_directions():
    for ops in ([("create", "/d"), ("create", "/d/f")],     # parent first
                [("delete", "/d/f"), ("delete", "/d")]):    # child first
        sim, node, log, svc = _stub_log()
        inflight, queued = _append_all(sim, node, log, ops)
        assert inflight == [ops[0][1]] and queued == [ops[1][1]]
        sim.run()
        assert svc.committed == ops


def test_pump_caps_in_flight_at_drain_window():
    sim, node, log, svc = _stub_log()
    n = DRAIN_WINDOW + 6
    inflight, queued = _append_all(
        sim, node, log, [("create", f"/f{i}") for i in range(n)])
    assert len(inflight) == DRAIN_WINDOW and len(queued) == n - DRAIN_WINDOW
    sim.run()
    assert len(svc.committed) == n
    # Depths 1..64 while the window fills, then 64 for each op a
    # completion lets in.
    assert log.batch_stats == {
        "flushes": n,
        "items": sum(range(1, DRAIN_WINDOW + 1)) + 6 * DRAIN_WINDOW}


def test_slow_op_does_not_hold_back_an_unrelated_one():
    sim, node, log, svc = _stub_log(slow=10e-3)

    def main():
        yield from log.append("create", "/slow")
        yield from log.append("create", "/fast")
        yield from log.barrier()

    sim.run(until=node.spawn(main()))
    assert svc.committed == [("create", "/fast"), ("create", "/slow")]


def test_drain_failure_aborts_the_run():
    """A bug in a drained op (anything the runner raises rather than
    returns, bar a crash) must not be swallowed by the drain: the strict
    simulator aborts."""
    class Broken(_Service):
        def run(self, op):
            yield self.sim.timeout(1e-4)
            raise RuntimeError("service bug")

    sim, node, log, svc = _stub_log()
    log.run = Broken(sim, {}).run
    node.spawn(log.append("create", "/x"))
    with pytest.raises(RuntimeError, match="service bug"):
        sim.run()


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
    # 20 acks cost client CPU — not 20 quorum round trips at ~1.6 ms
    # each, nor 20 back-end creates (the drain makes the files).
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
    b = _wblog(adufs).batch_stats
    # One count per op issued (the mkdir and 32 creates); the summed
    # in-flight depth shows the creates overlapping in the window.
    assert b["flushes"] == 33
    assert 4 < b["items"] / b["flushes"] <= DRAIN_WINDOW


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


def test_backpressure_bounds_the_acked_window(monkeypatch):
    monkeypatch.setattr(AsyncParams, "max_pending", 4)
    h = DUFSHarness(awrite=AsyncParams.async_on(), seed=0)
    c = h.dep.clients[0]

    pending = []

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        for i in range(40):
            yield from c.create(f"/d/f{i}")
            # The window grows only inside the acking append: sampled
            # after each create returns, it shows every high point.
            pending.append(len(c.wblog._pending))
        yield from c.flush()

    h.run(main())
    s = c.wblog.stats
    assert 0 < max(pending) <= 4
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
        # arrive twice: the pinned encoding's second slot was the
        # service start, which always equalled arrive.
        h.update(repr((ev.deployment, ev.endpoint, ev.method, ev.arrive,
                       ev.arrive, ev.end, ev.ok, ev.src, ev.retries,
                       ev.shard)).encode())
    assert len(bus.events) == 1044
    assert h.hexdigest() == GOLDEN_DIGEST
