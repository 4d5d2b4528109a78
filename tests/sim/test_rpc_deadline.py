"""RpcTimeout plumbing: late replies, recycled waiters, client tracing."""

import pytest

from repro.sim import Cluster, RpcAgent, RpcTimeout
from repro.svc import TraceBus, instrument_client


def build_pair():
    cluster = Cluster(seed=1)
    server_node = cluster.add_node("server", cores=2)
    client_node = cluster.add_node("client", cores=2)
    server = RpcAgent(server_node, "svc")
    client = RpcAgent(client_node, "cli")
    return cluster, server_node, client_node, server, client


def test_handler_outliving_caller_deadline_times_out_caller():
    cluster, snode, cnode, server, client = build_pair()
    finished = []

    def slow(src, args):
        yield cluster.sim.timeout(1.0)
        finished.append(cluster.sim.now)
        return "late"

    server.register("slow", slow)
    log = []

    def caller():
        try:
            yield from client.call("svc", "slow",
                                   deadline=cluster.sim.now + 0.1)
        except RpcTimeout:
            log.append(cluster.sim.now)

    cnode.spawn(caller())
    cluster.run()
    assert log == [pytest.approx(0.1)]
    # Raw RpcAgent handlers have no kernel to cancel them: the handler
    # runs to completion, but its reply goes nowhere.
    assert len(finished) == 1


def test_late_response_is_discarded_not_misdelivered():
    """After a timeout the rpc_id's waiter is gone; the late ``_Response``
    must be dropped, never delivered to a newer call's waiter."""
    cluster, snode, cnode, server, client = build_pair()

    def slow(src, args):
        yield cluster.sim.timeout(1.0)
        return "stale"

    def fast(src, args):
        yield cluster.sim.timeout(0.01)
        return "fresh"

    server.register("slow", slow)
    server.register("fast", fast)
    results = []

    def caller():
        try:
            yield from client.call("svc", "slow", timeout=0.1)
        except RpcTimeout:
            results.append("timeout")
        # Immediately reuse the agent while the stale reply is in flight.
        value = yield from client.call("svc", "fast", timeout=5.0)
        results.append(value)
        yield cluster.sim.timeout(2.0)     # let the stale reply land

    proc = cnode.spawn(caller())
    cluster.run()
    assert proc.triggered and proc._ok
    assert results == ["timeout", "fresh"]
    assert client._pending == {}           # no leaked waiters either


def test_timeout_leaves_no_pending_waiter():
    cluster, snode, cnode, server, client = build_pair()

    def slow(src, args):
        yield cluster.sim.timeout(3.0)

    server.register("slow", slow)

    def caller():
        with pytest.raises(RpcTimeout):
            yield from client.call("svc", "slow", timeout=0.05)
        assert client._pending == {}

    cluster.sim.run(until=cnode.spawn(caller()))


def test_instrumented_client_counts_timeout_retry_not_success():
    """An op that times out once and retries must trace as ONE op with
    one retry — the timed-out attempt is never recorded as a success."""
    cluster, snode, cnode, server, client = build_pair()

    def slow_then_any(src, args):
        yield cluster.sim.timeout(0.5)
        return "pong"

    server.register("ping", slow_then_any)
    bus = TraceBus()

    class Lib:
        def __init__(self, node, agent):
            self.sim = node.sim
            self.agent = agent
            self.last_retries = 0

        def ping(self):
            self.last_retries = 0
            for attempt in range(2):
                try:                       # first attempt cannot finish
                    timeout = 0.1 if attempt == 0 else 5.0
                    result = yield from self.agent.call("svc", "ping",
                                                        timeout=timeout)
                    return result
                except RpcTimeout:
                    self.last_retries += 1
            raise RpcTimeout("ping", "svc", 0.1)

    lib = Lib(cnode, client)
    instrument_client(lib, ("ping",), bus, deployment="t", endpoint="c0",
                      retries_of=lambda: lib.last_retries)

    def caller():
        return (yield from lib.ping())

    assert cluster.sim.run(until=cnode.spawn(caller())) == "pong"
    key = "t/c0.ping"
    assert bus.ops.get(key) == 1           # one logical op, not two
    assert bus.retries.get(key) == 1       # the timed-out attempt
    assert bus.errors.get(key) in (None, 0)
