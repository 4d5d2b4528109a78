"""Service kernel: declarative endpoints, unified counting, tracing."""

import pytest

from repro.errors import ENOENT, FSError
from repro.sim import Cluster
from repro.sim.rpc import RpcAgent
from repro.svc import BoundedAdmission, Service, TraceBus, instrument_client


def make_cluster():
    cluster = Cluster(seed=1)
    server = cluster.add_node("server")
    client = cluster.add_node("client")
    return cluster, server, client


def drive(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


def test_expose_serves_and_counts():
    cluster, server, client = make_cluster()
    bus = TraceBus()
    svc = Service(server, "srv", deployment="test", bus=bus)

    def h_echo(src, args):
        yield cluster.sim.timeout(1e-4)
        return args * 2

    svc.expose("echo", h_echo, cost=1e-4)
    agent = RpcAgent(client, "cli")
    assert drive(cluster, client, agent.call("srv", "echo", 21)) == 42
    assert bus.keys() == ["test/srv.echo"]      # the one completion
    assert bus.ops.get("test/srv.echo") == 1
    assert bus.errors.get("test/srv.echo") == 0
    assert svc.inflight == 0


def test_failed_ops_are_counted_too():
    """The satellite fix: every stack counts failures identically."""
    cluster, server, client = make_cluster()
    stats = {"ops": 0}
    bus = TraceBus()
    svc = Service(server, "srv", op_stats=stats, bus=bus)

    def h_boom(src, args):
        yield cluster.sim.timeout(1e-5)
        raise FSError(ENOENT, "nope")

    svc.expose("boom", h_boom)
    agent = RpcAgent(client, "cli")

    def caller():
        with pytest.raises(FSError):
            yield from agent.call("srv", "boom", None)
        return True

    assert drive(cluster, client, caller())
    assert stats["ops"] == 1
    assert bus.ops.get("svc/srv.boom") == 1
    assert bus.errors.get("svc/srv.boom") == 1
    assert svc.inflight == 0


def test_op_stats_hook_preserves_existing_keys():
    cluster, server, client = make_cluster()
    stats = {"ops": 7, "custom": 3}
    svc = Service(server, "srv", op_stats=stats)

    def h_noop(src, args):
        yield cluster.sim.timeout(1e-6)
        return True

    svc.expose("noop", h_noop)
    agent = RpcAgent(client, "cli")
    drive(cluster, client, agent.call("srv", "noop", None))
    assert stats == {"ops": 8, "custom": 3}


def test_write_methods_and_specs():
    cluster, server, _ = make_cluster()
    svc = Service(server, "srv")
    svc.expose("get", lambda s, a: iter(()), cost=1e-6)
    svc.expose("put", lambda s, a: iter(()), write=True, cost=2e-6)
    svc.expose("del", lambda s, a: iter(()), write=True)
    assert sorted(m for m, s in svc.specs.items() if s.write) == \
        ["del", "put"]
    assert svc.specs["put"].cost == 2e-6
    assert not svc.specs["get"].write


def test_trace_records_queue_wait_under_bounded_admission():
    cluster, server, client = make_cluster()
    bus = TraceBus()
    svc = Service(server, "srv", deployment="d",
                  policy=BoundedAdmission(cluster.sim, 1), bus=bus)

    def h_slow(src, args):
        yield cluster.sim.timeout(1e-3)
        return args

    svc.expose("slow", h_slow)
    agent = RpcAgent(client, "cli")

    def caller(i):
        result = yield from agent.call("srv", "slow", i)
        return result

    procs = [client.spawn(caller(i)) for i in range(3)]
    cluster.run()
    assert all(p.triggered and p._ok for p in procs)
    key = "d/srv.slow"
    assert bus.ops.get(key) == 3
    # With capacity 1, later requests queued behind the first.
    assert bus.queue_wait.summary(key).max >= 1e-3
    assert bus.service.summary(key).count == 3


def test_expose_fast_bypasses_admission_and_counting():
    cluster, server, client = make_cluster()
    bus = TraceBus()
    svc = Service(server, "srv", bus=bus)
    seen = []
    svc.expose_fast("note", lambda src, args: seen.append(args))
    agent = RpcAgent(client, "cli")
    agent.cast("srv", "note", 5)
    cluster.run(until=1.0)
    assert seen == [5]
    assert not bus.keys()


def test_instrument_client_publishes_traces():
    cluster, _, client = make_cluster()
    bus = TraceBus()

    class Lib:
        def __init__(self, node):
            self.sim = node.sim

        def op(self, x):
            yield self.sim.timeout(2e-3)
            return x + 1

    lib = Lib(client)
    instrument_client(lib, ("op",), bus, deployment="lib", endpoint="c0",
                      retries_of=lambda: 4)
    assert drive(cluster, client, lib.op(1)) == 2
    key = "lib/c0.op"
    assert bus.ops.get(key) == 1
    assert bus.retries.get(key) == 4
    tr = bus.service.summary(key)
    assert tr.max == pytest.approx(2e-3)
