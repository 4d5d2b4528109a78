"""Thin-client path resolution end to end: one RPC per lookup at any
depth, POSIX miss classification, a missing chain at one RPC per lookup,
and the resolve-off byte-identical replay. (The O(depth) legacy walk it replaces
is a bench baseline: ``tests/bench/test_resolve_walk.py``.)"""

import pytest

from repro.core import build_dufs_deployment
from repro.errors import ENOENT, ENOTDIR, FSError
from repro.models.params import CacheParams, ResolveParams
from repro.svc import TraceBus

CHAIN = "/t0/l0/l1/l2/l3/l4"              # 6 dirs; file below is depth 8


def make_dep(**kwargs):
    kwargs.setdefault("n_zk", 3)
    kwargs.setdefault("n_backends", 2)
    kwargs.setdefault("n_client_nodes", 2)
    kwargs.setdefault("backend", "local")
    return build_dufs_deployment(**kwargs)


def scaffold(dep):
    def build():
        c = dep.clients[0]
        path = ""
        for comp in CHAIN.split("/")[1:]:
            path += f"/{comp}"
            yield from c.mkdir(path)
        yield from c.create(f"{CHAIN}/ckpt")
        yield from c.mkdir("/shallow")
        yield from c.create("/shallow/f")
    dep.cluster.sim.run(until=dep.client_nodes[0].spawn(build()))
    dep.cluster.sim.run(until=dep.cluster.sim.now + 0.1)


def reads(dep):
    return sum(c.stats["zk_reads"] for c in dep.clients)


def bus_rpcs(dep, method):
    """TraceBus-counted client RPC completions of one wire method."""
    return sum(dep.bus.ops.get(k) for k in dep.bus.keys()
               if k.startswith("zk/") and k.endswith(f".{method}"))


def test_thin_client_is_one_rpc_per_lookup_at_any_depth():
    dep = make_dep(resolve=ResolveParams.resolve_on(), bus=TraceBus())
    scaffold(dep)
    for path in (f"{CHAIN}/ckpt", "/shallow/f", "/t0"):
        before = reads(dep)
        traced = bus_rpcs(dep, "resolve")
        dep.call(dep.clients[0].stat, path)
        assert reads(dep) - before == 1, path
        assert bus_rpcs(dep, "resolve") - traced == 1, path


def test_thin_miss_classification():
    dep = make_dep(resolve=ResolveParams.resolve_on())
    scaffold(dep)
    client = dep.clients[0]
    with pytest.raises(FSError) as err:
        dep.call(client.stat, "/t0/l0/missing/x")
    assert err.value.err == ENOENT         # nearest ancestor is a dir
    with pytest.raises(FSError) as err:
        dep.call(client.stat, f"{CHAIN}/ckpt/below-a-file")
    assert err.value.err == ENOTDIR        # nearest ancestor is a file


def test_negative_chain_served_without_rpcs():
    """A lookup anywhere along a missing chain is served without a
    per-component walk: one ``resolve`` RPC each, ENOENT, and the cache
    remembers none of them."""
    dep = make_dep(resolve=ResolveParams.resolve_on(),
                   cache=CacheParams.caching_on(), bus=TraceBus())
    scaffold(dep)
    client = dep.clients[0]
    for path in ("/t0/m1/m2/f", "/t0/m1/m2/f", "/t0/m1/m2", "/t0/m1"):
        before = reads(dep)
        traced = bus_rpcs(dep, "resolve")
        with pytest.raises(FSError) as err:
            dep.call(client.stat, path)
        assert err.value.err == ENOENT
        assert reads(dep) - before == 1, path
        assert bus_rpcs(dep, "resolve") - traced == 1, path


def test_rename_invalidates_server_dentries_end_to_end():
    dep = make_dep(resolve=ResolveParams.resolve_on())
    scaffold(dep)
    client = dep.clients[0]

    def rename_and_settle():
        yield from client.rename("/t0/l0", "/t0/moved")
    dep.cluster.sim.run(until=dep.client_nodes[0].spawn(rename_and_settle()))
    dep.cluster.sim.run(until=dep.cluster.sim.now + 0.1)
    with pytest.raises(FSError) as err:
        dep.call(client.stat, f"{CHAIN}/ckpt")
    assert err.value.err == ENOENT
    st = dep.call(client.stat, "/t0/moved/l1/l2/l3/l4/ckpt")
    assert st is not None


def test_resolve_off_replay_is_byte_identical():
    """Default build vs explicit inert policies: not one completion time
    may shift (the same discipline as cache/sharding/resilience)."""

    def run_once(resolve):
        dep = make_dep(seed=11, resolve=resolve)
        times = []

        def workload():
            yield from dep.mounts[0].mkdir("/d")
            times.append(dep.cluster.sim.now)
            for i in range(5):
                yield from dep.mounts[0].create(f"/d/f{i}")
                times.append(dep.cluster.sim.now)
            yield from dep.mounts[1].stat("/d/f0")
            times.append(dep.cluster.sim.now)

        dep.cluster.sim.run(until=dep.client_nodes[0].spawn(workload()))
        return times

    default = run_once(None)
    assert default == run_once(ResolveParams())
