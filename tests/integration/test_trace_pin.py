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
# events — acks now land after the local apply), and again when that
# wait began ending at the instant of the local apply, not at the next
# log_delay tick: earlier write timings, 902 -> 898 OpTraces (two fewer
# parent reads: a mkdir reads its parent until its client has seen it,
# and fewer of those reads now coincide on the two clients) and 8,382
# -> 8,415 simulator events. Kernel-only rewrites must still reproduce
# it bit-for-bit.
GOLDEN_DIGEST = ("8ced29d256f58ce8cf3221d4288dd0bc"
                 "dc3753e222888fd727fd340dfe54eb4f")


def _digest(bus, *extra) -> str:
    h = hashlib.sha256()
    for ev in bus.events:
        # arrive twice: the pinned encoding's second slot was the
        # service start, which always equalled arrive.
        h.update(repr((ev.deployment, ev.endpoint, ev.method, ev.arrive,
                       ev.arrive, ev.end, ev.ok, ev.src, ev.retries,
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
    "cache+thin": dict(cache=CacheParams.caching_on(),
                       resolve=ResolveParams.resolve_on()),
    "async+cache": dict(awrite=AsyncParams.async_on(),
                        cache=CacheParams.caching_on()),
    "2shards+cache": dict(n_zk=4, n_shards=2,
                          cache=CacheParams.caching_on()),
}

ARM_GOLDENS = {
    # "2shards+cache" re-recorded when a mkdir whose anchor chain is cold
    # began writing the missing placeholders and the anchor in one multi,
    # not one create each: OpTraces 1,885 -> 1,879 (six fewer ZooKeeper
    # writes) and simulator events 12,600 -> 12,536; the other five arms
    # build no sharded plane and did not move.
    # Before that, "default" and "thin" re-recorded when a stat stopped recording a FID
    # hint, so only this mount's creates leave one: the same OpTraces,
    # the read-side tail's second stat of /pin/f0 unhinted, one simulator
    # event fewer on each (12,143 -> 12,142 on "default").
    # Before that, all six re-recorded when a follower began answering a forwarded
    # write at the instant it applies it, not at the next log_delay
    # tick: earlier write timings on every arm. OpTraces 1,886 -> 1,885
    # ("2shards+cache"), 1,472 -> 1,474 ("default") and 1,843 -> 1,846
    # ("thin"), from parent reads and chain creates that the new
    # interleaving makes or saves, the other three unchanged; simulator
    # events 12,299 -> 12,143 on "default" (-1.3 %), -3 on "async+cache".
    # Before that, all but "async+cache" re-recorded when a synchronous mount's file
    # create began taking a spare, a physical file made ahead of it, and
    # starting the next: the same OpTraces per arm, earlier file-create
    # timings, and 56 more simulator events per arm (a spare's process
    # per create; 12,243 -> 12,299 on "default"). The write-behind arm
    # makes no spares and is the digest recorded before them.
    # Before that, "default" and "thin" re-recorded when a file stat with a FID hint
    # (the mount created or last stat'ed the file) began starting its
    # back-end stat beside its znode read: the same OpTraces per arm,
    # earlier file-stat timings, and one more simulator event per hinted
    # stat, its child (12,202 -> 12,243 events on "default"). A mount with
    # the coherent cache keeps no hints, so the four cache arms are the
    # digests recorded before the hint.
    # Before that, all but "async+cache" re-recorded when a synchronous unlink began
    # returning once its znode delete landed, its back-end unlink left to
    # a process of its own: the same OpTraces per arm, one more simulator
    # event per file remove (40), earlier file_remove timings. The
    # write-behind arm unlinks inside the drained op, as before.
    # "async+cache" re-recorded when the write-behind drain began priming
    # the coherent cache with each create it lands: one watched get per
    # create (198 of them) and 80 fewer lookup misses in the stat and
    # remove phases, so 118 more reads (1,579 -> 1,815 OpTraces, 8,499 ->
    # 9,650 simulator events). Before that when a write-behind create
    # began making its physical file in the drain, after the ack and
    # before its znode create (the same 1,579 OpTraces, 8,493 -> 8,499
    # simulator events), and
    # before that when a write-behind unlink began running its physical
    # unlink in the drain, after its znode delete landed (8,489 -> 8,493).
    # All six re-recorded when each client began making its hash-directory
    # chain at mount instead of inside its first create on each back-end:
    # the same OpTraces per arm (1,886 / 1,579 / 1,571 / 1,762 / 1,472 /
    # 1,843 in this order) with earlier file-create timings, and 5 (2
    # shards), 7 (async) or 9 (the other four) fewer simulator events.
    # Before that, "2shards+cache" moved when ShardedMDS began writing a
    # directory's two copies concurrently and building anchor chains
    # deepest-first (1,898 -> 1,886 events: fewer chain creates), and
    # "async+cache" when the write-behind drain began issuing each op as
    # soon as no in-flight op conflicts with it (8,891 -> 8,496 simulator
    # events).
    "2shards+cache": ("137f9313832e8cc033af13f8afef017f"
                      "5ac0f7783b6b6866c94e9628b145ed18"),
    "async+cache": ("77bd5a8cd470d1205450388be991703a"
                    "d8c37282184fe75e1c789ccb8e306394"),
    "cache": ("526dbf83430a4583f6eb9366744d1ad9"
              "77645610294d6fc25cc961b4bf79459f"),
    "cache+thin": ("ea69cc413d8df943718e4a229e582174"
                   "d963d7efcf379dafd009522d6525f7f1"),
    "default": ("6d6b3c0eaf670f1899f64323e0b99bb1"
                "63fe564ef2d938f85b1d6b24e65a40bd"),
    "thin": ("c3758e1b63ee7e875fcfacb5413e7855"
             "bfa3b92360c0f332d41b88b442745d3d"),
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
