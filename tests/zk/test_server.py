"""Integration tests: ZK ensemble semantics through the client API."""

from repro.svc import TraceBus
from repro.zk.errors import (
    BadArgumentsError,
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
)

from .conftest import ZKHarness


def test_create_visible_on_all_replicas(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/app", b"cfg")

    zk3.run(main())
    zk3.settle(0.1)
    for server in zk3.ensemble.servers:
        assert server.store.get("/app")[0] == b"cfg"
    assert zk3.ensemble.converged()


def test_write_via_follower_is_forwarded():
    bus = TraceBus()
    zk3 = ZKHarness(n_servers=3, bus=bus)
    cli = zk3.client(prefer_index=2)  # zk2 is a follower (leader = zk0)

    def main():
        yield from cli.create("/f", b"x")
        return (yield from cli.get("/f"))

    data, stat = zk3.run(main())
    assert data == b"x"
    assert bus.ops.get("zk/zk2.write") == 1
    assert bus.ops.get("zk/zk0.fwd_write") == 1
    assert bus.ops.get("zk/zk0.write") == 0


def test_a_forwarded_create_returns_when_its_follower_applies_it():
    """A follower answers a forwarded write at the instant its own replica
    applies it, as ZooKeeper does, with no ``log_delay`` tick after the
    apply; the same client's ``exists`` then reads the new znode there."""
    zk3 = ZKHarness(n_servers=3)
    sim = zk3.cluster.sim
    follower = zk3.ensemble.servers[2]
    cli = zk3.client(prefer_index=2)
    returned = []
    route = follower._route_write

    def timed(req):
        result = yield from route(req)
        returned.append(sim.now)
        return result

    follower._route_write = timed

    def main():
        yield from cli.create("/f", b"x")
        return (yield from cli.exists("/f"))

    stat = zk3.run(main())
    applied = follower.store.exists("/f").ctime
    assert returned == [applied]
    # Each replica stamps ctime with its own apply instant: this is zk2's.
    assert stat.ctime == applied
    assert zk3.ensemble.servers[0].store.exists("/f").ctime < applied


def test_duplicate_create_raises_node_exists(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/dup")
        try:
            yield from cli.create("/dup")
        except NodeExistsError:
            return "exists"

    assert zk3.run(main()) == "exists"


def test_reads_served_locally_by_follower():
    bus = TraceBus()
    zk3 = ZKHarness(n_servers=3, bus=bus)
    cli = zk3.client(prefer_index=1)

    def main():
        yield from cli.create("/r", b"v")
        return (yield from cli.get("/r"))

    data, _ = zk3.run(main())
    assert data == b"v"
    # The read hit zk1, not the leader.
    assert bus.ops.get("zk/zk1.read") == 1
    assert bus.ops.get("zk/zk0.read") == 0


def test_set_data_version_conflict(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/v", b"0")
        yield from cli.set_data("/v", b"1", version=0)
        try:
            yield from cli.set_data("/v", b"2", version=0)
        except BadVersionError:
            return "conflict"

    assert zk3.run(main()) == "conflict"


def test_delete_nonempty_and_missing(zk3):
    cli = zk3.client()

    def main():
        out = []
        yield from cli.create("/d")
        yield from cli.create("/d/c")
        try:
            yield from cli.delete("/d")
        except NotEmptyError:
            out.append("notempty")
        try:
            yield from cli.delete("/ghost")
        except NoNodeError:
            out.append("nonode")
        return out

    assert zk3.run(main()) == ["notempty", "nonode"]


def test_concurrent_writes_from_two_clients_converge(zk3):
    c1 = zk3.client(prefer_index=1)
    c2 = zk3.client(prefer_index=2)

    def writer(cli, base):
        yield from cli.create(f"/{base}")
        for i in range(10):
            yield from cli.create(f"/{base}/f{i}", b"d")

    zk3.run_all(writer(c1, "a"), writer(c2, "b"))
    zk3.settle(0.2)
    assert zk3.ensemble.converged()
    leader = zk3.ensemble.servers[0]
    assert len(leader.store.get_children("/a")) == 10
    assert len(leader.store.get_children("/b")) == 10


def test_single_server_ensemble_works(zk1):
    cli = zk1.client()

    def main():
        yield from cli.create("/solo", b"1")
        return (yield from cli.get("/solo"))

    data, _ = zk1.run(main())
    assert data == b"1"


def test_multi_atomic_success(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/m", b"")
        results = yield from cli.multi([
            cli.op_create("/m/a", b"1"),
            cli.op_create("/m/b", b"2"),
            cli.op_set("/m", b"parent"),
        ])
        return results

    results = zk3.run(main())
    assert results == ["/m/a", "/m/b", True]
    zk3.settle(0.1)
    assert zk3.ensemble.converged()
    assert zk3.ensemble.servers[1].store.get("/m")[0] == b"parent"


def test_multi_atomic_failure_applies_nothing(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/m", b"")
        yield from cli.create("/m/conflict", b"")
        try:
            yield from cli.multi([
                cli.op_create("/m/new", b""),
                cli.op_create("/m/conflict", b""),  # fails
            ])
        except NodeExistsError:
            pass
        return (yield from cli.exists("/m/new"))

    assert zk3.run(main()) is None


def test_multi_rename_pattern(zk3):
    """The DUFS rename: create new name + delete old name, atomically."""
    cli = zk3.client()

    def main():
        yield from cli.create("/old", b"fid-123")
        yield from cli.multi([
            cli.op_create("/new", b"fid-123"),
            cli.op_delete("/old"),
        ])
        old = yield from cli.exists("/old")
        new_data, _ = yield from cli.get("/new")
        return old, new_data

    old, new_data = zk3.run(main())
    assert old is None
    assert new_data == b"fid-123"


def test_multi_delete_then_recreate_same_path(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/x", b"old")
        yield from cli.multi([
            cli.op_delete("/x"),
            cli.op_create("/x", b"new"),
        ])
        return (yield from cli.get("/x"))

    data, stat = zk3.run(main())
    assert data == b"new"
    assert stat.version == 0  # brand-new node


def test_multi_delete_root_refused_and_replicas_healthy(zk3):
    cli = zk3.client()

    def main():
        try:
            yield from cli.multi([cli.op_delete("/")])
        except BadArgumentsError:
            pass
        else:
            raise AssertionError("deleting / committed")
        yield from cli.create("/after", b"ok")

    zk3.run(main())
    zk3.settle(0.1)
    assert zk3.ensemble.converged()
    for server in zk3.ensemble.servers:
        assert server.store.get("/after")[0] == b"ok"


def test_multi_relative_path_refused(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/b", b"")
        try:
            yield from cli.multi([cli.op_delete("b")])
        except BadArgumentsError:
            return (yield from cli.exists("/b"))

    assert zk3.run(main()) is not None


def test_multi_sub_op_sees_earlier_sub_ops(zk3):
    """Sub-op k is checked against sub-ops 0..k-1 already applied: a
    versioned write to a node the same multi created sees its version 0."""
    cli = zk3.client()

    def main():
        yield from cli.multi([cli.op_create("/a"),
                              cli.op_set("/a", b"x", version=0)])
        try:
            yield from cli.multi([cli.op_create("/b"),
                                  cli.op_delete("/b", version=5)])
        except BadVersionError:
            return (yield from cli.exists("/a")), (yield from cli.exists("/b"))

    a, b = zk3.run(main())
    assert a is not None and b is None
    leader = zk3.ensemble.servers[0]
    assert leader.spec_store.fingerprint() == leader.store.fingerprint()


def test_stat_fields_flow_to_client(zk3):
    cli = zk3.client()

    def main():
        yield from cli.create("/s", b"abc")
        return (yield from cli.exists("/s"))

    stat = zk3.run(main())
    assert stat.data_length == 3
    assert stat.version == 0
    assert stat.czxid > 0
    assert stat.ctime > 0


def test_totally_ordered_commits_identical_on_all_replicas(zk3):
    """The Fig. 1 consistency scenario: concurrent conflicting namespace
    operations must be applied in the same order everywhere."""
    c1 = zk3.client(prefer_index=1)
    c2 = zk3.client(prefer_index=2)

    def maker():
        for i in range(20):
            try:
                yield from c1.create("/d1", bytes([i]))
            except NodeExistsError:
                pass

    def renamer():
        for i in range(20):
            try:
                yield from c2.multi([
                    c2.op_create("/d2", b""),
                    c2.op_delete("/d1"),
                ])
                yield from c2.delete("/d2")
            except (NoNodeError, NodeExistsError):
                pass

    zk3.run_all(maker(), renamer())
    zk3.settle(0.5)
    assert zk3.ensemble.converged()


def test_throughput_counters():
    bus = TraceBus()
    zk3 = ZKHarness(n_servers=3, bus=bus)
    cli = zk3.client()

    def main():
        for i in range(5):
            yield from cli.create(f"/n{i}")
        for i in range(5):
            yield from cli.get(f"/n{i}")

    zk3.run(main())
    assert bus.ops.get("zk/zk0.write") == 5
    # One proposal per write: the leader's log self-acks it, each
    # follower's logs it.
    assert [bus.batch_items.get(f"zk/zk{i}.logger") for i in range(3)] \
        == [5, 5, 5]
