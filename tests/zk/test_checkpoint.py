"""Checkpointing: explicit and automatic snapshot + log truncation
(paper §IV-I: "although each ZooKeeper server keeps all its data in
memory, it is periodically checkpointed on disk")."""


from repro.models.params import FaultToleranceParams, ZKParams

from .conftest import ZKHarness


def test_explicit_checkpoint_truncates_log(zk3):
    cli = zk3.client()

    def writes():
        for i in range(10):
            yield from cli.create(f"/c{i}")

    zk3.run(writes())
    zk3.settle(0.2)
    leader = zk3.ensemble.servers[0]
    assert len(leader.log) == 10
    leader.checkpoint()
    assert len(leader.log) == 0
    assert leader._snapshot_zxid == leader.commit_index
    # The tree is intact and rebuilds from the snapshot.
    leader._on_crash()
    leader._rebuild_from_disk()
    for i in range(10):
        assert leader.store.exists(f"/c{i}") is not None


def test_auto_checkpoint_loop_truncates_periodically():
    params = ZKParams(checkpoint_interval=0.5)
    h = ZKHarness(n_servers=3, params=params)
    cli = h.client()

    def writes():
        for i in range(20):
            yield from cli.create(f"/a{i}")

    h.run(writes())
    before = [len(s.log) for s in h.ensemble.servers]
    h.settle(1.5)  # at least one checkpoint tick on every server
    after = [len(s.log) for s in h.ensemble.servers]
    assert all(a < b for a, b in zip(after, before)), (before, after)
    for s in h.ensemble.servers:
        assert s._snapshot is not None
        assert s._snapshot_zxid > 0


def test_writes_survive_auto_checkpoint_plus_crash():
    params = ZKParams(checkpoint_interval=0.3)
    h = ZKHarness(n_servers=3, params=params, seed=4)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=5))

    def phase(a, b):
        def gen():
            for i in range(a, b):
                yield from cli.create(f"/p{i}")
        return gen()

    h.run(phase(0, 8))
    h.settle(0.8)  # checkpoint happens
    victim = h.ensemble.servers[1]
    victim.node.crash()
    h.run(phase(8, 16))
    victim.node.recover()
    h.settle(2.0)
    for i in range(16):
        assert victim.store.exists(f"/p{i}") is not None, i
    assert h.ensemble.converged()
