"""Per-shard watch loss: each shard client holds the watches registered
through it, so losing one shard's session must not cost the client its
whole cache, only the paths watched through that shard."""

from repro.core import build_dufs_deployment
from repro.models.params import CacheParams


def make_dep(n_shards=2):
    return build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=1,
                                 backend="local", n_shards=n_shards,
                                 cache=CacheParams.caching_on())


def populate(dep, n_dirs=8):
    m = dep.mounts[0]
    for i in range(n_dirs):
        dep.call(m.mkdir, f"/d{i}")
        dep.call(m.create, f"/d{i}/f")
    for i in range(n_dirs):               # warm the cache
        dep.call(m.stat, f"/d{i}/f")
        dep.call(m.readdir, f"/d{i}")


def watched(zkc):
    return set(zkc._data_watches) | set(zkc._child_watches)


def test_shard_watch_loss_flushes_only_that_slice():
    dep = make_dep()
    cache, svc = dep.clients[0].mdcache, dep.clients[0].zk
    populate(dep)
    victim = svc.client_for_shard(svc.map.home_shard("/d0/f"))
    survivor = svc.client_for_shard(1 - victim.shard)
    lost, kept = watched(victim), watched(survivor)
    entries, listings = set(cache._entries), set(cache._listings)
    assert entries - lost and listings - lost, \
        "test needs paths watched through the surviving shard"

    victim._fail_over()

    assert set(cache._entries) == entries - lost
    assert set(cache._listings) == listings - lost
    assert watched(victim) == set() and watched(survivor) == kept


def test_single_shard_deployment_flushes_wholesale():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=1,
                                backend="local",
                                cache=CacheParams.caching_on())
    cache = dep.clients[0].mdcache
    populate(dep, n_dirs=4)
    assert cache._entries
    dep.clients[0].zk.client_for_shard(0)._fail_over()
    assert not cache._entries and not cache._listings
