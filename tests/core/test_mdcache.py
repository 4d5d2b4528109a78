"""The coherent client metadata cache: hits, bounds, coalescing, coherence.

Each test drives real DUFS clients over a real simulated ZooKeeper
ensemble — the cache is exercised through the client entry points, not
poked directly, except where a test targets one internal policy.
"""

import pytest

from repro.errors import ENOENT, FSError
from repro.models.params import CacheParams

from .conftest import DUFSHarness


@pytest.fixture
def cached():
    return DUFSHarness(cache=CacheParams.caching_on())


def _stats(h, i=0):
    return h.dep.clients[i].stats


def _cache(h, i=0):
    return h.dep.clients[i].mdcache


# -- hits ---------------------------------------------------------------------
def test_repeat_stat_is_served_from_cache(cached):
    c = cached.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.stat("/d/f")
        reads_after_first = _stats(cached)["zk_reads"]
        for _ in range(5):
            yield from c.stat("/d/f")
        return reads_after_first

    reads_after_first = cached.run(main())
    assert _stats(cached)["zk_reads"] == reads_after_first  # all hits
    counters = _cache(cached).counters
    assert counters["hits"] >= 5
    assert counters["hits"] > counters["misses"] + counters["coalesced"]


def test_stat_after_readdir_piggybacks_listing(cached):
    """The ls -l pattern: readdir-plus fills positive entries, so the
    per-entry stats that follow never touch ZooKeeper."""
    c = cached.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        for i in range(4):
            yield from c.create(f"/d/f{i}")
        entries = yield from c.readdir("/d")
        reads = _stats(cached)["zk_reads"]
        for e in entries:
            yield from c.stat(f"/d/{e.name}")
        return reads

    reads_before_stats = cached.run(main())
    assert _stats(cached)["zk_reads"] == reads_before_stats
    mc = _cache(cached)
    assert mc.counters["listing_misses"] == 1
    assert mc.counters["hits"] >= 4

    def again():
        yield from c.readdir("/d")

    cached.run(again())
    assert mc.counters["listing_hits"] == 1


def test_cache_off_records_nothing(dufs):
    """Default policy: every counter stays zero (the byte-identity face)."""
    c = dufs.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.stat("/d/f")
        yield from c.stat("/d/f")
        yield from c.readdir("/d")

    dufs.run(main())
    assert all(v == 0 for v in _cache(dufs).counters.values())
    assert len(_cache(dufs)) == 0


# -- bounds -------------------------------------------------------------------
def test_lru_capacity_bound():
    h = DUFSHarness(cache=CacheParams.caching_on(capacity=4))
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        for i in range(8):
            yield from c.create(f"/d/f{i}")
        for i in range(8):
            yield from c.stat(f"/d/f{i}")

    h.run(main())
    mc = _cache(h)
    assert len(mc) <= 4
    assert mc.counters["evictions"] > 0
    assert "/d/f7" in mc._entries       # most recent survives
    assert "/d/f0" not in mc._entries   # oldest evicted


def test_a_miss_is_not_remembered(cached):
    """A miss registers no watch, so the cache keeps nothing for it: each
    failing lookup reads ZooKeeper, and a create is visible at once."""
    c = cached.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        reads = _stats(cached)["zk_reads"]
        for _ in range(3):
            try:
                yield from c.stat("/d/nope")
            except FSError as exc:
                assert exc.errno == ENOENT
        missed = _stats(cached)["zk_reads"] - reads
        yield from c.create("/d/nope")
        st = yield from c.stat("/d/nope")
        return missed, st

    missed, st = cached.run(main())
    assert missed == 3
    assert st is not None


# -- read coalescing ----------------------------------------------------------
def test_concurrent_lookups_share_one_rpc(cached):
    c = cached.dep.clients[0]
    cached.run(c.mkdir("/d"))
    cached.run(c.create("/d/f"))
    before = _stats(cached)["zk_reads"]

    results = cached.run_all(c.stat("/d/f"), c.stat("/d/f"), c.stat("/d/f"))
    assert all(st is not None for st in results)
    mc = _cache(cached)
    assert mc.counters["coalesced"] == 2        # two piggybacked
    assert _stats(cached)["zk_reads"] == before + 1


def test_coalesced_failure_propagates_to_waiters(cached):
    c = cached.dep.clients[0]
    cached.run(c.mkdir("/d"))

    def one():
        try:
            yield from c.stat("/d/nope")
        except FSError as exc:
            return exc.errno
        return None

    errnos = cached.run_all(one(), one())
    assert errnos == [ENOENT, ENOENT]
    assert _cache(cached).counters["coalesced"] == 1


# -- coherence ----------------------------------------------------------------
def test_remote_write_invalidates_via_watch(cached):
    """Client 1 deletes a file client 0 has cached; the data watch (plus
    the parent child watch) invalidates, and client 0 sees ENOENT."""
    c0, c1 = cached.dep.clients[0], cached.dep.clients[1]
    cached.run(c0.mkdir("/d"))
    cached.run(c0.create("/d/f"))
    cached.run(c0.stat("/d/f"))                  # cached at client 0
    cached.run(c1.unlink("/d/f"), node_index=1)
    cached.settle(0.2)                           # watch delivery
    assert _cache(cached).counters["watch_invalidations"] >= 1

    def check():
        try:
            yield from c0.stat("/d/f")
        except FSError as exc:
            return exc.errno
        return None

    assert cached.run(check()) == ENOENT


def test_remote_chmod_refreshes_cached_mode(cached):
    c0, c1 = cached.dep.clients[0], cached.dep.clients[1]
    cached.run(c0.mkdir("/d"))
    st = cached.run(c0.stat("/d"))
    assert (st.st_mode & 0o777) == 0o755
    cached.run(c1.chmod("/d", 0o700), node_index=1)
    cached.settle(0.2)
    st = cached.run(c0.stat("/d"))
    assert (st.st_mode & 0o777) == 0o700


def test_remote_create_refreshes_a_listing_read_after_a_stat(cached):
    """stat then readdir of one directory: the readdir arms the child
    watch although the stat already armed the data watch."""
    c0, c1 = cached.dep.clients[0], cached.dep.clients[1]
    cached.run(c0.mkdir("/d"))
    cached.run(c0.stat("/d"))
    assert cached.run(c0.readdir("/d")) == []
    cached.run(c1.create("/d/x"), node_index=1)
    cached.settle(0.5)
    assert [e.name for e in cached.run(c0.readdir("/d"))] == ["x"]


def test_remote_chmod_refreshes_a_stat_read_after_a_readdir(cached):
    """readdir then stat of one directory: the stat arms the data watch
    although the readdir already armed the child watch."""
    c0, c1 = cached.dep.clients[0], cached.dep.clients[1]
    cached.run(c0.mkdir("/d"))
    cached.run(c0.readdir("/d"))
    assert (cached.run(c0.stat("/d")).st_mode & 0o777) == 0o755
    cached.run(c1.chmod("/d", 0o700), node_index=1)
    cached.settle(0.5)
    assert (cached.run(c0.stat("/d")).st_mode & 0o777) == 0o700


def test_watch_loss_flushes_everything(cached):
    """A fail-over drops every watch the ZooKeeper client held; each one's
    ``lost`` event drops what the cache kept under it."""
    c = cached.dep.clients[0]
    cached.run(c.mkdir("/d"))
    cached.run(c.create("/d/f"))
    cached.run(c.stat("/d/f"))
    cached.run(c.readdir("/d"))
    mc = _cache(cached)
    zkc = c.zk.client_for_shard(0)
    assert len(mc) > 0 and mc._listings
    invalidations = mc.counters["watch_invalidations"]

    zkc._fail_over()                             # what a failed attempt does
    assert len(mc) == 0 and not mc._listings
    assert not zkc._data_watches and not zkc._child_watches
    assert mc.counters["watch_invalidations"] == invalidations + 2

    # and the next lookup refetches, repopulating
    cached.run(c.stat("/d/f"))
    assert len(mc) == 1


def test_rename_dir_kills_cached_subtree(cached):
    c = cached.dep.clients[0]

    def setup():
        yield from c.mkdir("/a")
        yield from c.create("/a/f")
        yield from c.stat("/a/f")
        yield from c.readdir("/a")

    cached.run(setup())
    mc = _cache(cached)
    assert "/a/f" in mc._entries

    cached.run(c.rename("/a", "/b"))
    assert "/a/f" not in mc._entries
    assert "/a" not in mc._listings
    assert not mc.known_dir("/a")

    def check():
        st = yield from c.stat("/b/f")
        assert st is not None
        try:
            yield from c.stat("/a/f")
        except FSError as exc:
            return exc.errno

    assert cached.run(check()) == ENOENT


def test_vdir_dcache_unified_without_cache(dufs):
    """The always-on virtual-directory dcache (the old _vdir_cache) lives
    in MDCache now, cache enabled or not."""
    c = dufs.dep.clients[0]
    mc = _cache(dufs)
    dufs.run(c.mkdir("/d"))
    assert mc.known_dir("/d")
    dufs.run(c.rmdir("/d"))
    assert not mc.known_dir("/d")
