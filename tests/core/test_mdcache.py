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
def test_ttl_expiry_forces_refetch():
    h = DUFSHarness(cache=CacheParams.caching_on(ttl=0.05))
    c = h.dep.clients[0]

    def part1():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.stat("/d/f")
        yield from c.stat("/d/f")      # within TTL: hit

    h.run(part1())
    assert _cache(h).counters["hits"] == 1
    h.settle(0.2)                      # expire the entry

    def part2():
        yield from c.stat("/d/f")

    h.run(part2())
    assert _cache(h).counters["hits"] == 1      # no new hit
    assert _cache(h).counters["misses"] >= 2    # refetched


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


def test_negative_caching_bounds_enoent_lookups():
    h = DUFSHarness(cache=CacheParams.caching_on(negative_ttl=0.5))
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        for _ in range(3):
            try:
                yield from c.stat("/d/nope")
            except FSError as exc:
                assert exc.errno == ENOENT
        reads = _stats(h)["zk_reads"]
        # creating the path must kill the negative (read-your-writes)
        yield from c.create("/d/nope")
        st = yield from c.stat("/d/nope")
        assert st is not None
        return reads

    h.run(main())
    assert _cache(h).counters["neg_hits"] == 2   # 1 miss + 2 negative hits


def test_negative_caching_off_by_default(cached):
    c = cached.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        for _ in range(3):
            try:
                yield from c.stat("/d/nope")
            except FSError:
                pass

    cached.run(main())
    assert _cache(cached).counters["neg_hits"] == 0


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


def test_watch_loss_flushes_everything(cached):
    c = cached.dep.clients[0]
    cached.run(c.mkdir("/d"))
    cached.run(c.create("/d/f"))
    cached.run(c.stat("/d/f"))
    cached.run(c.readdir("/d"))
    mc = _cache(cached)
    assert len(mc) > 0 and mc._listings

    c.zk._notify_watch_loss("failover")          # what _fail_over() calls
    assert len(mc) == 0
    assert not mc._listings and not mc._watched and not mc._dirs
    assert mc.counters["flushes"] == 1

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
