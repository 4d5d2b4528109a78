"""What a ZooKeeper replica keeps per znode and per logged write.

Every replica holds the whole namespace, so its per-znode cost is paid
once per server (docs/MODEL.md §12, cut 7): a znode is one slotted object
with its stat fields inline and, as a leaf, no children dict of its own,
and a follower's log holds the leader's ``(zxid, txn)`` entry itself
rather than a copy.
"""

import tracemalloc

from repro.core import build_dufs_deployment
from repro.zk.data import ZnodeStore

LEAVES = 20_000
#: tracemalloc bytes per flat leaf, its name and dict slot included: 356–412
#: with a separate ``ZnodeStat`` and a dict per leaf, 188–205 with neither
#: (CPython 3.10–3.13).
MAX_BYTES_PER_ZNODE = 300


def test_a_flat_leaf_costs_at_most_300_traced_bytes():
    store = ZnodeStore()
    paths = [f"/f{i:05d}" for i in range(LEAVES)]
    times = [i * 1e-4 for i in range(LEAVES)]
    zxids = [(1 << 32) | (i + 1) for i in range(LEAVES)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for path, zxid, time in zip(paths, zxids, times):
            store.apply_create(path, b"", zxid, time)
        per_znode = (tracemalloc.get_traced_memory()[0] - before) / LEAVES
    finally:
        tracemalloc.stop()
    assert len(store) == LEAVES + 1
    assert per_znode <= MAX_BYTES_PER_ZNODE, per_znode


def test_a_returned_stat_is_a_copy():
    store = ZnodeStore()
    store.apply_create("/a", b"xy", 5, 1.0)
    store.apply_create("/a/b", b"", 6, 2.0)
    stat = store.exists("/a")
    _, got = store.get("/a")
    for s in (stat, got):
        s.version = 99
        s.cversion = 99
        s.num_children = 0
        s.data_length = 0
    assert store.exists("/a") == store.get("/a")[1]
    fresh = store.exists("/a")
    assert (fresh.version, fresh.cversion, fresh.num_children,
            fresh.data_length) == (0, 1, 1, 2)
    assert store.snapshot()[1][7:9] == (0, 1)


def _assert_followers_log_the_leaders_entries(dep) -> None:
    leader, *followers = dep.ensemble.servers
    assert leader.role == "leading" and leader.log
    for f in followers:
        assert len(f.log) == len(leader.log), f.sid
        assert all(mine is theirs for mine, theirs in zip(f.log, leader.log))


def test_followers_log_the_leaders_entry_objects():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    client = dep.clients[0]

    def creates(prefix, n):
        def gen():
            for i in range(n):
                yield from client.create(f"/{prefix}{i}")
        sim.run(until=dep.client_nodes[0].spawn(gen()))
        sim.run()

    creates("a", 5)
    _assert_followers_log_the_leaders_entries(dep)

    victim = dep.ensemble.servers[2]
    victim.node.crash()
    creates("c", 5)
    victim.node.recover()                   # re-syncs through follow()
    sim.run()
    assert victim.role == "following"
    assert victim.store.fingerprint() == dep.ensemble.servers[0].store.fingerprint()
    _assert_followers_log_the_leaders_entries(dep)
