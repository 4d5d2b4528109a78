"""The write-behind drain primes the coherent cache with each create it
commits: one watched read of the new path once the create lands, so the
client's first lookup of its own new name hits, and a data watch keeps
the entry coherent like one a read filled.
"""

import pytest

from repro.core import build_dufs_deployment
from repro.errors import ENOENT, FSError
from repro.models.params import (AsyncParams, CacheParams, ResolveParams,
                                 SimParams, ZKParams)

from .conftest import DUFSHarness


def _harness(thin=False):
    return DUFSHarness(cache=CacheParams.caching_on(),
                       awrite=AsyncParams.async_on(),
                       resolve=ResolveParams(enabled=thin), seed=0)


@pytest.mark.parametrize("thin", [False, True], ids=["znode", "thin"])
def test_stat_after_create_and_flush_reads_nothing(thin):
    h = _harness(thin)
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.symlink("/d/f", "/d/ln")
        yield from c.flush()
        reads = c.stats["zk_reads"]
        dst = yield from c.stat("/d")
        fst = yield from c.stat("/d/f")
        lst = yield from c.stat("/d/ln")
        return reads, dst, fst, lst

    reads, dst, fst, lst = h.run(main())
    assert c.stats["zk_reads"] == reads
    assert dst.is_dir and fst.is_file and lst is not None
    h.settle()
    assert {"/d", "/d/f", "/d/ln"} <= set(c.mdcache._entries)
    assert c.mdcache.counters["misses"] == 0     # a prime is no lookup


def _stat_errno(h, c, path):
    def check():
        try:
            return (yield from c.stat(path))
        except FSError as exc:
            return exc.errno

    return h.run(check())


def test_remote_unlink_of_a_primed_path_fires_its_watch():
    h = _harness()
    c0, c1 = h.dep.clients
    h.run(c0.mkdir("/d"))
    h.run(c0.create("/d/f"))
    h.run(c0.flush())
    h.settle()
    assert "/d/f" in c0.mdcache._entries
    h.run(c1.unlink("/d/f"), node_index=1)
    h.run(c1.flush(), node_index=1)
    h.settle()
    assert "/d/f" not in c0.mdcache._entries
    assert c0.mdcache.counters["watch_invalidations"] >= 1
    assert _stat_errno(h, c0, "/d/f") == ENOENT


def test_remote_chmod_of_a_primed_path_fires_its_watch():
    h = _harness()
    c0, c1 = h.dep.clients
    h.run(c0.mkdir("/d"))
    h.run(c0.flush())
    h.settle()
    assert "/d" in c0.mdcache._entries
    h.run(c1.chmod("/d", 0o700), node_index=1)
    h.run(c1.flush(), node_index=1)
    h.settle()
    assert (_stat_errno(h, c0, "/d").st_mode & 0o777) == 0o700


def test_a_prime_of_a_deleted_path_stores_nothing_and_raises_nothing():
    h = _harness()
    c0, c1 = h.dep.clients
    h.run(c0.mkdir("/d"))
    h.run(c0.flush())
    h.run(c1.rmdir("/d"), node_index=1)
    h.run(c1.flush(), node_index=1)
    h.settle()
    reads = c0.stats["zk_reads"]
    h.run(c0.mdcache.prime("/d"))           # the read finds no node
    assert c0.stats["zk_reads"] == reads + 1
    assert "/d" not in c0.mdcache._entries and not c0.mdcache._inflight
    assert _stat_errno(h, c0, "/d") == ENOENT


def test_a_crash_mid_prime_leaves_no_waiter_and_stat_recovers():
    """The client node (no ZooKeeper server on it) crashes while the
    drain's prime of ``/d`` is in flight: the drain process ends, its
    in-flight waiter goes with it, and a stat after recovery completes."""
    params = SimParams(zk=ZKParams(failure_detection=True),
                       cache=CacheParams.caching_on(),
                       awrite=AsyncParams.async_on())
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=1,
                                backend="local", params=params,
                                co_locate_zk=False, seed=1)
    sim, node, c = dep.cluster.sim, dep.client_nodes[0], dep.clients[0]
    sim.run(until=1.0)                      # the ensemble has elected
    node.spawn(c.mkdir("/d"))
    deadline = sim.now + 1.0
    while "/d" not in c.mdcache._inflight:
        assert sim.now < deadline, "the drain never primed /d"
        sim.step()
    assert c.wblog.stats["committed"] == 1
    node.crash()
    sim.run(until=sim.now + 1.0)
    assert not c.mdcache._inflight
    node.recover()
    sim.run(until=sim.now + 1.0)
    st = sim.run(until=node.spawn(c.stat("/d")))
    assert st.is_dir
