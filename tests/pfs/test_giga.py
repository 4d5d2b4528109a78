"""GIGA+ distributed directory: addressing, splits, stale bitmaps,
and the availability trade-off the paper calls out (§VI)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EEXIST, ENOENT, FSError
from repro.pfs.giga import build_giga
from repro.pfs.giga.service import (
    MAX_DEPTH,
    bit,
    hash_bits,
    partition_for,
    prefix_id,
)
from repro.sim import Cluster


def make(n_servers=4, split_threshold=50, seed=0):
    cluster = Cluster(seed=seed)
    cnodes = [cluster.add_node(f"c{i}") for i in range(2)]
    svc = build_giga(cluster, n_servers=n_servers,
                     split_threshold=split_threshold)
    return cluster, cnodes, svc


def run(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


# -- addressing math ---------------------------------------------------------

def test_partition_for_empty_bitmap_is_root():
    assert partition_for(hash_bits("x"), set()) == 0


def test_partition_for_follows_splits():
    # Split root (creates 1): names with b0=1 go to partition 1.
    bitmap = {1}
    h1 = next(h for h in map(hash_bits, (f"n{i}" for i in range(100)))
              if bit(h, 0) == 1)
    h0 = next(h for h in map(hash_bits, (f"n{i}" for i in range(100)))
              if bit(h, 0) == 0)
    assert partition_for(h1, bitmap) == 1
    assert partition_for(h0, bitmap) == 0
    # Split partition 1 at depth 1 (creates 1 | 2 = 3).
    bitmap.add(3)
    if bit(h1, 1):
        assert partition_for(h1, bitmap) == 3
    else:
        assert partition_for(h1, bitmap) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sets(st.integers(1, 2**10), max_size=32))
def test_partition_id_always_matches_prefix(h, bitmap):
    """Invariant: the partition chosen for h is always a prefix-id of h
    at the partition's implied depth (bitmap may be arbitrary garbage —
    the walk only follows children consistent with h's bits)."""
    pid = partition_for(h, bitmap)
    depth = max((k + 1 for k in range(MAX_DEPTH)
                 if pid & (1 << k)), default=0)
    assert prefix_id(h, depth) & pid == pid  # pid's set bits match h's


# -- behaviour ---------------------------------------------------------------

def test_insert_lookup_remove():
    cluster, cnodes, svc = make()
    cli = svc.client(cnodes[0])

    def main():
        yield from cli.insert("alpha")
        yield from cli.lookup("alpha")
        try:
            yield from cli.insert("alpha")
        except FSError as e:
            dup = e.err
        yield from cli.remove("alpha")
        try:
            yield from cli.lookup("alpha")
        except FSError as e:
            return dup, e.err

    dup, gone = run(cluster, cnodes[0], main())
    assert dup == EEXIST and gone == ENOENT


def test_partitions_split_and_spread():
    cluster, cnodes, svc = make(n_servers=4, split_threshold=40)
    cli = svc.client(cnodes[0])

    def main():
        for i in range(600):
            yield from cli.insert(f"file-{i:05d}")

    run(cluster, cnodes[0], main())
    assert sum(len(t) for s in svc.servers
               for t in s.partitions.values()) == 600
    assert sum(svc.partitions_per_server()) >= 1 + 3     # 3+ splits
    # Partitions landed on several servers, and no partition is huge.
    populated = [n for n in svc.partitions_per_server() if n > 0]
    assert len(populated) >= 3
    for s in svc.servers:
        for pid, table in s.partitions.items():
            assert len(table) <= 40 * 2  # threshold + in-flight slack


def test_entries_stay_reachable_across_splits():
    cluster, cnodes, svc = make(split_threshold=30)
    cli = svc.client(cnodes[0])

    def main():
        for i in range(300):
            yield from cli.insert(f"k{i}")
        found = 0
        for i in range(300):
            yield from cli.lookup(f"k{i}")
            found += 1
        return found

    assert run(cluster, cnodes[0], main()) == 300


def test_stale_client_learns_lazily():
    """A second client with an empty bitmap addresses the root partition,
    gets bounced, refreshes, retries — GIGA+'s lazy propagation."""
    cluster, cnodes, svc = make(split_threshold=25)
    writer = svc.client(cnodes[0])

    def fill():
        for i in range(200):
            yield from writer.insert(f"z{i}")

    run(cluster, cnodes[0], fill())
    assert sum(svc.partitions_per_server()) >= 1 + 2     # 2+ splits
    fresh = svc.client(cnodes[1])
    assert fresh.bitmap == set()

    def probe():
        ok = 0
        for i in range(0, 200, 10):
            yield from fresh.lookup(f"z{i}")
            ok += 1
        return ok

    assert run(cluster, cnodes[1], probe()) == 20
    # Only a bounce refreshes the copy: it was bounced at least once.
    assert fresh.bitmap == svc.bitmap   # converged


def test_no_replication_means_unavailability_on_server_loss():
    """The paper's §VI criticism: 'if the server or the partition goes
    down ... the files are not accessible anymore' — unlike DUFS, whose
    ZooKeeper metadata survives minority failures."""
    cluster, cnodes, svc = make(n_servers=4, split_threshold=30, seed=2)
    cli = svc.client(cnodes[0])

    def fill():
        for i in range(400):
            yield from cli.insert(f"v{i}")

    run(cluster, cnodes[0], fill())
    victim = max(svc.servers, key=lambda s: sum(len(t)
                 for t in s.partitions.values()))
    lost_entries = sum(len(t) for t in victim.partitions.values())
    assert lost_entries > 0
    victim.node.crash()
    cli.rpc_timeout = 0.3

    from repro.sim.rpc import RpcTimeout

    def probe():
        unreachable = 0
        for i in range(0, 400, 7):
            try:
                yield from cli.lookup(f"v{i}")
            except (RpcTimeout, FSError):
                unreachable += 1
        return unreachable

    unreachable = run(cluster, cnodes[0], probe())
    assert unreachable > 0  # a slice of the namespace simply vanished
