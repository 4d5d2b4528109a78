"""Byte-identical trace pin against the pre-overhaul kernel.

The simulator hot-path overhaul (fast event kernel, same-time FIFO lane,
batched heap inserts, interned RPC keys) must not move a single event:
with trace sampling off, a figure-suite workload replays the exact
OpTrace stream the pre-overhaul kernel produced. The golden digest below
was captured from the kernel as of the commit *before* the overhaul; any
rewrite that reorders ties, shifts a timestamp, or drops/duplicates an
op changes it.
"""

import hashlib

import pytest

from repro.core.fs import build_dufs_deployment
from repro.errors import FSError
from repro.models.params import AsyncParams, CacheParams, ResolveParams
from repro.svc import TraceBus
from repro.workloads.mdtest import MdtestConfig, run_mdtest

# sha256 over the full OpTrace stream of the workload below (see
# _trace_digest for the exact encoding). Captured on the pre-overhaul
# kernel; re-recorded when the ZK follower forwarding path gained the
# read-your-writes wait (a semantic protocol fix that legitimately moves
# events — acks now land after the local apply). Kernel-only rewrites
# must still reproduce it bit-for-bit.
GOLDEN_DIGEST = ("c5dfa3efd3fa04feb0039ace7fdb6f3d"
                 "6735b342cd5d02c7228d4c12328518e3")


def _digest(bus, *extra) -> str:
    h = hashlib.sha256()
    for ev in bus.events:
        h.update(repr((ev.deployment, ev.endpoint, ev.method, ev.arrive,
                       ev.start, ev.end, ev.ok, ev.src, ev.retries,
                       ev.shard)).encode())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()


def _trace_digest() -> str:
    bus = TraceBus(keep_events=True)
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local", seed=0, bus=bus)
    cfg = MdtestConfig(n_procs=4, items_per_proc=10,
                       phases=("dir_create", "dir_stat", "dir_remove"))
    run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
    return _digest(bus)


def test_figure_workload_trace_matches_pre_overhaul_kernel():
    assert _trace_digest() == GOLDEN_DIGEST


# ---------------------------------------------------------------------------
# Per-arm pins: the feature arms' whole RPC stream, recorded at the commit
# before the DUFS read side became one lookup chain. A refactor of the
# lookup path must reproduce every digest bit-for-bit.
# ---------------------------------------------------------------------------

ARMS = {
    "default": dict(),
    "cache": dict(cache=CacheParams.caching_on()),
    "thin": dict(resolve=ResolveParams.resolve_on()),
    "cache+thin+neg": dict(cache=CacheParams.caching_on(negative_ttl=10.0),
                           resolve=ResolveParams.resolve_on()),
    "async+cache": dict(awrite=AsyncParams.async_on(),
                        cache=CacheParams.caching_on()),
    "2shards+cache": dict(n_zk=4, n_shards=2,
                          cache=CacheParams.caching_on()),
}

ARM_GOLDENS = {
    # Re-recorded when ShardedMDS began writing a directory's two copies
    # concurrently and building anchor chains deepest-first (1,898 ->
    # 1,886 events: fewer chain creates); the other five never shard.
    "2shards+cache": ("e75e7c23bc07cc0ce161f1fda7ae03ce"
                      "d3daae4e14923724f94a3b0d64294b5b"),
    "async+cache": ("5a7f3fe34b5dc270df9425bd3cad5eb3"
                    "54927617ca0be5cf003bcb4acbc6f4c7"),
    "cache": ("5e873a37faf4c6e9000064c359fb21c2"
              "7f9cc3f459e7b63478c1b7f8dd29d84b"),
    "cache+thin+neg": ("64dbe2aa3ab19fb2473a2bdb92f6762c"
                       "78f4dd57016c385a5cc6e9d3575390a6"),
    "default": ("f64b760283c0332a648f2b19dec618eb"
                "7634abf993742417d0bcf5729594a2ef"),
    "thin": ("213278ccba533272a03ea67213d94c26"
             "3d9ffaedbba1d7a5f2ffce85cba9e416"),
}


def _arm_digest(**arm) -> str:
    """All six mdtest phases through the client library (so the async arm
    has its ``flush`` barrier), then a read-side tail on the *other*
    client: ``readdir`` of a populated directory, repeated and concurrent
    same-path stats, and stats of missing paths under a directory, under
    a missing chain and under a file."""
    bus = TraceBus(keep_events=True)
    kwargs = dict(n_zk=3, n_backends=2, n_client_nodes=2, backend="local",
                  seed=0, bus=bus)
    kwargs.update(arm)
    dep = build_dufs_deployment(**kwargs)
    sim = dep.cluster.sim
    cfg = MdtestConfig(n_procs=4, items_per_proc=10, drain=True)
    run_mdtest(dep.cluster, lambda i: dep.clients[i % 2], dep.node_for, cfg)
    writer, reader = dep.clients
    outcomes = []

    def build():
        yield from writer.mkdir("/pin")
        yield from writer.mkdir("/pin/sub")
        for i in range(4):
            yield from writer.create(f"/pin/f{i}")
        yield from writer.symlink("/pin/f0", "/pin/ln")
        outcomes.append((yield from writer.flush()))

    def attempt(op, path):
        try:
            value = yield from op(path)
        except FSError as exc:
            outcomes.append((path, exc.err))
        else:
            if isinstance(value, list):
                value = sorted((e.name, e.is_dir) for e in value)
            else:
                value = value.st_mode
            outcomes.append((path, value))

    def tail():
        yield from attempt(reader.readdir, "/pin")
        for path in ("/pin/f0", "/pin/sub", "/pin/f0",
                     "/pin/missing", "/pin/missing",
                     "/pin/nodir/deep/x", "/pin/nodir/deep", "/pin/nodir",
                     "/pin/f1/below-a-file", "/pin/f1/below-a-file",
                     "/pin/ln/below-a-symlink"):
            yield from attempt(reader.stat, path)
        twins = [dep.client_nodes[1].spawn(attempt(reader.stat, "/pin/f3"))
                 for _ in range(3)]
        for proc in twins:
            yield proc

    sim.run(until=dep.client_nodes[0].spawn(build()))
    sim.run(until=sim.now + 0.1)
    sim.run(until=dep.client_nodes[1].spawn(tail()))
    return _digest(bus, outcomes)


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_feature_arm_trace_matches_pre_chain_client(arm):
    assert _arm_digest(**ARMS[arm]) == ARM_GOLDENS[arm]
