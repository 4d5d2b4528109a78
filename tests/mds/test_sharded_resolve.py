"""Sharded ``resolve``: bounded hop counts. An existing path always
resolves in one hop (its home shard child-hosts the parent, so the
whole anchor chain is local); a miss costs a second hop only when the
parent's authoritative copy lives on another shard; subtree-pinned
namespaces never leave their shard."""

from repro.core import build_dufs_deployment
from repro.models.params import ResolveParams


def make_dep(n_shards=4, **kwargs):
    kwargs.setdefault("n_zk", max(4, n_shards))
    kwargs.setdefault("n_backends", 2)
    kwargs.setdefault("n_client_nodes", 1)
    kwargs.setdefault("backend", "local")
    kwargs.setdefault("resolve", ResolveParams.resolve_on())
    return build_dufs_deployment(n_shards=n_shards, **kwargs)


def hops(svc):
    return svc.stats["resolve_hops"]


def test_existing_paths_resolve_in_one_hop():
    dep = make_dep()
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    dep.call(m.mkdir, "/deep")
    dep.call(m.mkdir, "/deep/a")
    dep.call(m.mkdir, "/deep/a/b")
    dep.call(m.create, "/deep/a/b/f")
    for path in ("/deep/a/b/f", "/deep/a/b", "/deep/a", "/deep"):
        before = hops(svc)
        res = dep.call(svc.resolve, path)
        assert res.status == "ok", path
        assert hops(svc) - before == 1, path


def test_miss_with_remote_parent_costs_at_most_two_hops():
    dep = make_dep()
    svc = dep.clients[0].zk
    name = next(f"/p{i}" for i in range(256)
                if svc.map.home_shard(f"/p{i}/child")
                != svc.map.home_shard(f"/p{i}"))
    before = hops(svc)
    res = dep.call(svc.resolve, f"{name}/child")
    assert res.status == "miss"
    assert res.ancestor == "/"            # nothing was ever created
    assert hops(svc) - before == 2        # home probe + parent's home


def test_miss_with_local_parent_stays_one_hop():
    dep = make_dep()
    svc = dep.clients[0].zk
    name = next(f"/q{i}" for i in range(256)
                if svc.map.home_shard(f"/q{i}/child")
                == svc.map.home_shard(f"/q{i}"))
    before = hops(svc)
    res = dep.call(svc.resolve, f"{name}/child")
    assert res.status == "miss"
    assert hops(svc) - before == 1


def test_subtree_pinned_namespace_resolves_in_one_hop():
    dep = make_dep(shard_subtrees={"/pin": 1})
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    dep.call(m.mkdir, "/pin")
    dep.call(m.mkdir, "/pin/a")
    dep.call(m.create, "/pin/a/f")
    for path, status in (("/pin/a/f", "ok"), ("/pin/a/x/y", "miss")):
        before = hops(svc)
        res = dep.call(svc.resolve, path)
        assert res.status == status, path
        assert hops(svc) - before == 1, path
