"""The pending-write overlay vs the coherence machinery.

The overlay mirrors this client's own acked-but-uncommitted write-behind
mutations; its truth does not depend on any watch registration. So the
coherence paths — watch invalidation, and a watch loss on one shard
client or all of them — must never touch it, while commit/reject (owned by the drain) retire it
exactly. Plus the ``note_created`` stale-ancestor-negative regression.
"""

import pytest

from repro.errors import ENOENT, FSError
from repro.models.params import AsyncParams, CacheParams
from repro.zk.protocol import WatchEvent

from .conftest import DUFSHarness


@pytest.fixture
def cached_async():
    return DUFSHarness(cache=CacheParams.caching_on(),
                       awrite=AsyncParams.async_on(), seed=0)


# -- overlay vs coherence -----------------------------------------------------
def test_overlay_survives_full_cache_flush(cached_async):
    """A fail-over loses every watch and flushes the coherence tables
    wholesale — the overlay must keep serving read-your-writes."""
    h = cached_async
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        yield from c.create("/d/f")             # acked, still pending
        assert c.mdcache.overlay_pending("/d/f") == "create"
        c.zk.client_for_shard(0)._fail_over()   # every watch is lost
        assert c.mdcache.overlay_pending("/d/f") == "create"
        st = yield from c.stat("/d/f")          # no sim yield: overlay hit
        names = yield from c.readdir("/d")
        return st, [e.name for e in names]

    st, names = h.run(main())
    assert st is not None and "f" in names


def test_overlay_survives_watch_invalidation(cached_async):
    """A remote write's watch event drops the cached entry/listing for
    the path — never the pending overlay entry riding above it."""
    h = cached_async
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        yield from c.readdir("/d")              # cache the listing + watch
        yield from c.create("/d/mine")          # pending
        # A remote create in /d fires the child watch on /d.
        c.mdcache._on_watch(WatchEvent(kind="child", path="/d"))
        assert c.mdcache.overlay_pending("/d/mine") == "create"
        st = yield from c.stat("/d/mine")
        return st

    assert h.run(main()) is not None


def test_overlay_survives_flush_shard():
    """Each shard client loses its own watches; none of it reaches the
    overlay."""
    h = DUFSHarness(n_zk=4, n_shards=2, cache=CacheParams.caching_on(),
                    awrite=AsyncParams.async_on(), seed=0)
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        yield from c.create("/d/f")             # pending
        for shard in range(2):                  # fail over every shard
            c.zk.client_for_shard(shard)._fail_over()
        assert c.mdcache.overlay_pending("/d/f") == "create"
        st = yield from c.stat("/d/f")
        return st

    assert h.run(main()) is not None


def test_pending_path_is_served_locally_never_coalesced(cached_async):
    """Reads of a pending path are answered from the overlay without an
    RPC, so they never enter the read-coalescing inflight table — and
    concurrent readers all get the pending payload. The one read the run
    makes is the drain's prime of ``/d/f`` once its create lands."""
    h = cached_async
    c = h.dep.clients[0]
    results = []

    def setup():
        yield from c.mkdir("/d")
        yield from c.flush()
        yield from c.create("/d/f")

    h.run(setup())
    reads_before = c.stats["zk_reads"]
    hits_before = c.mdcache.counters["overlay_hits"]

    def reader():
        st = yield from c.stat("/d/f")
        results.append(st)

    h.run_all(reader(), reader(), reader())
    assert len(results) == 3 and all(st is not None for st in results)
    assert c.mdcache.counters["overlay_hits"] >= hits_before + 3
    assert c.mdcache.counters["coalesced"] == 0
    assert c.stats["zk_reads"] == reads_before + 1      # the prime alone


def test_remote_rmdir_rejects_pending_create_at_the_barrier():
    """Coherence conflict end-to-end: client 1 removes a directory the
    server sees as empty while client 0 holds an acked-but-uncommitted
    create under it. The drain's create is refused, the overlay rolls
    back, and the error surfaces at client 0's next flush."""
    h = DUFSHarness(awrite=AsyncParams.async_on(), seed=0)
    c0, c1 = h.dep.clients[0], h.dep.clients[1]

    def setup():
        yield from c0.mkdir("/d")
        yield from c0.flush()

    h.run(setup())

    def remote_rmdir():
        yield from c1.rmdir("/d")
        yield from c1.flush()

    h.run(remote_rmdir(), node_index=1)

    def local_create():
        # c0's dcache still believes /d exists; the ack goes through.
        yield from c0.create("/d/f")
        return (yield from c0.flush())

    errors = h.run(local_create())
    assert [(p, e.errno) for p, (e) in
            [(p, exc) for p, exc in errors]] == [("/d/f", ENOENT)]
    assert c0.wblog.stats["rejected"] == 1
    assert c0.mdcache.overlay_pending("/d/f") is None

    def confirm_gone():
        try:
            yield from c0.stat("/d/f")
            return None
        except FSError as exc:
            return exc.errno

    assert h.run(confirm_gone()) == ENOENT


def test_overlay_commit_requires_exact_seq(cached_async):
    """A newer pending op on the same path keeps the overlay in place
    when an older op's commit lands."""
    md = cached_async.dep.clients[0].mdcache
    md.overlay_put("/x", "create", None, seq=1)
    md.overlay_put("/x", "set", None, seq=2)    # newer op, same path
    md.overlay_commit("/x", 1)                  # stale seq: no-op
    assert md.overlay_pending("/x") == "set"
    md.overlay_commit("/x", 2)
    assert md.overlay_pending("/x") is None


# -- a create under a formerly missing chain ---------------------------------
def test_create_under_formerly_negative_ancestor_unsticks_the_chain():
    """Client 0 finds /a missing, then client 1 builds /a/b remotely.
    Client 0's own create of /a/b/g and its stat of /a both succeed: the
    miss left nothing behind that could keep serving ENOENT."""
    h = DUFSHarness(cache=CacheParams.caching_on(), seed=0)
    c0, c1 = h.dep.clients[0], h.dep.clients[1]

    def probe():
        try:
            yield from c0.stat("/a")
        except FSError as exc:
            return exc.errno

    assert h.run(probe()) == ENOENT

    def remote_build():
        yield from c1.mkdir("/a")
        yield from c1.mkdir("/a/b")

    h.run(remote_build(), node_index=1)

    def local_create_and_stat():
        yield from c0.create("/a/b/g")
        st = yield from c0.stat("/a")
        return st

    assert h.run(local_create_and_stat()) is not None
    assert not c0.mdcache.known_missing("/a")
