"""Unit tests for nodes and the RPC layer, including failure injection."""

import pytest

from repro.errors import ENOENT, FSError
from repro.sim import Cluster, Reply, RpcAgent, RpcTimeout


def build_pair():
    cluster = Cluster(seed=1)
    server_node = cluster.add_node("server", cores=2)
    client_node = cluster.add_node("client", cores=2)
    server = RpcAgent(server_node, "svc")
    client = RpcAgent(client_node, "cli")
    return cluster, server_node, client_node, server, client


def test_basic_call_roundtrip():
    cluster, snode, cnode, server, client = build_pair()

    def echo(src, args):
        yield from snode.cpu_work(0.001)
        return ("echo", args)

    server.register("echo", echo)
    results = []

    def caller():
        value = yield from client.call("svc", "echo", {"x": 1})
        results.append((value, cluster.sim.now))

    cnode.spawn(caller())
    cluster.sim.run()
    assert results[0][0] == ("echo", {"x": 1})
    assert results[0][1] > 0.001  # cpu + 2 network hops


def test_handler_exception_reraised_at_caller():
    cluster, snode, cnode, server, client = build_pair()

    def failing(src, args):
        yield from snode.cpu_work(0.0001)
        raise FSError(ENOENT, "/missing")

    server.register("stat", failing)
    caught = []

    def caller():
        try:
            yield from client.call("svc", "stat", "/missing")
        except FSError as e:
            caught.append(e.err)

    cnode.spawn(caller())
    cluster.sim.run()
    assert caught == [ENOENT]


def test_missing_handler_raises_remote_error():
    from repro.sim import RemoteError

    cluster, snode, cnode, server, client = build_pair()
    caught = []

    def caller():
        try:
            yield from client.call("svc", "nope")
        except RemoteError:
            caught.append(True)

    cnode.spawn(caller())
    cluster.sim.run()
    assert caught == [True]


def test_reply_sets_response_size():
    cluster, snode, cnode, server, client = build_pair()

    def bulk(src, args):
        yield from snode.cpu_work(0.0001)
        return Reply(b"data", size=1_000_000)

    server.register("read", bulk)
    times = []

    def caller():
        yield from client.call("svc", "read")
        times.append(cluster.sim.now)

    cnode.spawn(caller())
    cluster.sim.run()
    # 1 MB at ~117 MB/s dominates: response must take > 8 ms
    assert times[0] > 0.008


def test_concurrent_calls_on_shared_cpu_saturate():
    cluster = Cluster(seed=2)
    snode = cluster.add_node("server", cores=1)
    cnode = cluster.add_node("client", cores=8)
    server = RpcAgent(snode, "svc")

    def work(src, args):
        yield from snode.cpu_work(0.010)
        return None

    server.register("op", work)
    done = []

    def caller(agent):
        for _ in range(5):
            yield from agent.call("svc", "op")
            done.append(cluster.sim.now)

    for i in range(4):
        cnode.spawn(caller(RpcAgent(cnode, f"cli{i}")))
    cluster.sim.run()
    # 20 ops x 10 ms on one core -> at least 200 ms of busy time.
    assert max(done) >= 0.200


def test_call_timeout_raises():
    cluster, snode, cnode, server, client = build_pair()

    def slow(src, args):
        yield cluster.sim.timeout(10.0)
        return None

    server.register("slow", slow)
    caught = []

    def caller():
        try:
            yield from client.call("svc", "slow", timeout=0.5)
        except RpcTimeout:
            caught.append(cluster.sim.now)

    cnode.spawn(caller())
    cluster.sim.run()
    assert caught == [pytest.approx(0.5)]


def test_server_crash_causes_timeout_then_recovery_works():
    cluster, snode, cnode, server, client = build_pair()

    def op(src, args):
        yield from snode.cpu_work(0.001)
        return "ok"

    server.register("op", op)
    log = []

    def caller():
        try:
            yield from client.call("svc", "op", timeout=0.2)
            log.append("first-ok")
        except RpcTimeout:
            log.append("timeout")
        yield cluster.sim.timeout(1.0)
        value = yield from client.call("svc", "op", timeout=0.2)
        log.append(value)

    def chaos():
        snode.crash()
        yield cluster.sim.timeout(0.5)
        snode.recover()

    cnode.spawn(caller())
    cnode.spawn(chaos())
    cluster.sim.run()
    assert log == ["timeout", "ok"]


def test_crash_kills_in_flight_handler():
    cluster, snode, cnode, server, client = build_pair()
    started = []

    def op(src, args):
        started.append(True)
        yield cluster.sim.timeout(5.0)
        return "should-not-happen"

    server.register("op", op)
    log = []

    def caller():
        try:
            yield from client.call("svc", "op", timeout=1.0)
            log.append("ok")
        except RpcTimeout:
            log.append("timeout")

    def chaos():
        yield cluster.sim.timeout(0.1)  # after handler starts
        snode.crash()

    cnode.spawn(caller())
    cnode.spawn(chaos())
    cluster.sim.run()
    assert started == [True]
    assert log == ["timeout"]


def test_cast_is_one_way():
    cluster, snode, cnode, server, client = build_pair()
    got = []

    def notify(src, args):
        yield from snode.cpu_work(0.0001)
        got.append((src, args))

    server.register("notify", notify)
    client.cast("svc", "notify", {"n": 1})
    cluster.sim.run()
    assert got == [("cli", {"n": 1})]


def test_node_disk_serializes():
    cluster = Cluster(seed=3)
    node = cluster.add_node("n", cores=8, disk_concurrency=1)
    finish = []

    def txn():
        yield from node.disk_io(0.005)
        finish.append(cluster.sim.now)

    for _ in range(4):
        node.spawn(txn())
    cluster.sim.run()
    assert finish == [pytest.approx(0.005 * (i + 1)) for i in range(4)]
