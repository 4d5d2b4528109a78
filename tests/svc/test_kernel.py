"""The service kernel's declarative endpoints, unified counting and tracing."""

import pytest

from repro.errors import ENOENT, FSError
from repro.sim import Cluster
from repro.sim.rpc import RpcAgent
from repro.svc import Service, TraceBus, instrument_client


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

    svc.expose("echo", h_echo)
    agent = RpcAgent(client, "cli")
    assert drive(cluster, client, agent.call("srv", "echo", 21)) == 42
    assert bus.keys() == ["test/srv.echo"]      # the one completion
    assert bus.ops.get("test/srv.echo") == 1
    assert bus.errors.get("test/srv.echo") == 0
    assert svc.inflight == 0


def test_failed_ops_are_counted_too():
    """The satellite fix: every stack counts failures identically."""
    cluster, server, client = make_cluster()
    bus = TraceBus()
    svc = Service(server, "srv", bus=bus)

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
    assert bus.ops.get("svc/srv.boom") == 1
    assert bus.errors.get("svc/srv.boom") == 1
    assert svc.inflight == 0


def test_expose_fast_bypasses_admission_and_counting():
    cluster, server, client = make_cluster()
    bus = TraceBus()
    svc = Service(server, "srv", bus=bus)
    seen = []
    svc.expose_fast("note", lambda src, args: seen.append(args))
    agent = RpcAgent(client, "cli")
    agent.cast("srv", "note", 5)
    cluster.sim.run(until=1.0)
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
