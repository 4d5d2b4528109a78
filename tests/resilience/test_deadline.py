"""Deadline propagation end-to-end: caller -> RPC -> nested RPCs. A
deadline bounds how long a caller waits; it never stops a server."""

import pytest

from repro.models.params import FaultToleranceParams
from repro.sim import Cluster, RpcAgent, RpcTimeout
from repro.svc import Service, TraceBus


def make_cluster():
    cluster = Cluster(seed=1)
    server = cluster.add_node("server")
    client = cluster.add_node("client")
    return cluster, server, client


def test_child_process_inherits_ambient_deadline():
    cluster, server, client = make_cluster()
    seen = []

    def child():
        seen.append(cluster.sim._active.deadline)
        yield cluster.sim.timeout(0)

    def parent():
        cluster.sim._active.deadline = 3.5
        client.spawn(child())
        yield cluster.sim.timeout(0.01)

    client.spawn(parent())
    cluster.sim.run()
    assert seen == [3.5]


def test_deadline_caps_rpc_timeout():
    cluster, server, client = make_cluster()
    svc = Service(server, "srv", deployment="d")
    svc.expose("slow", lambda s, a: iter([cluster.sim.timeout(10.0)]))
    agent = RpcAgent(client, "cli")
    caught = []

    def caller():
        try:
            yield from agent.call("srv", "slow", timeout=5.0,
                                  deadline=cluster.sim.now + 0.25)
        except RpcTimeout:
            caught.append(cluster.sim.now)

    client.spawn(caller())
    cluster.sim.run()
    assert caught == [pytest.approx(0.25)]


def test_expired_deadline_raises_before_sending():
    cluster, server, client = make_cluster()
    runs = []
    svc = Service(server, "srv")
    svc.expose("op", lambda s, a: iter(runs.append(True) or ()))
    agent = RpcAgent(client, "cli")
    caught = []

    def caller():
        yield cluster.sim.timeout(1.0)
        try:
            yield from agent.call("srv", "op", deadline=0.5)
        except RpcTimeout:
            caught.append(cluster.sim.now)

    client.spawn(caller())
    cluster.sim.run()
    assert caught == [pytest.approx(1.0)]   # failed fast, no waiting
    assert runs == []                       # nothing ever hit the wire


def test_a_nested_rpc_inherits_its_callers_deadline():
    """The deadline rides the request: a handler's own RPC, issued with no
    bound of its own, is capped at what is left of the caller's budget."""
    cluster, server, client = make_cluster()
    backend = cluster.add_node("backend")
    Service(backend, "back").expose(
        "slow", lambda s, a: iter([cluster.sim.timeout(10.0)]))
    front = Service(server, "front")
    nested = []

    def relay(src, args):
        try:
            yield from front.agent.call("back", "slow")
        except RpcTimeout:
            nested.append(cluster.sim.now)

    front.expose("relay", relay)
    agent = RpcAgent(client, "cli")

    def caller():
        with pytest.raises(RpcTimeout):
            yield from agent.call("front", "relay",
                                  deadline=cluster.sim.now + 0.25)

    client.spawn(caller())
    cluster.sim.run()
    assert nested == [pytest.approx(0.25)]


def test_a_deadline_schedules_nothing_at_the_server():
    """A deadline bounds the caller, not the server: the same read served
    under ``timeout=1.0`` and under ``deadline=now + 1.0`` creates the
    same simulator events and completes at the same instant."""

    def run_once(bound):
        cluster, server, client = make_cluster()
        svc = Service(server, "srv")

        def h_read(src, args):
            yield cluster.sim.timeout(0.2)
            return "v"

        svc.expose("read", h_read)
        agent = RpcAgent(client, "cli")
        done = []

        def caller():
            kw = ({"timeout": 1.0} if bound == "timeout"
                  else {"deadline": cluster.sim.now + 1.0})
            done.append((yield from agent.call("srv", "read", **kw)))
            done.append(cluster.sim.now)

        client.spawn(caller())
        cluster.sim.run()
        return done, cluster.sim._eid

    assert run_once("timeout") == run_once("deadline")


@pytest.mark.parametrize("method", ["read", "write"])
def test_a_handler_runs_to_completion_past_its_callers_deadline(method):
    """The caller gives up at its deadline; the handler, a read's or a
    write's alike, runs to completion and is counted as a served op."""
    cluster, server, client = make_cluster()
    bus = TraceBus()
    finished = []
    svc = Service(server, "srv", deployment="d", bus=bus)

    def handler(src, args):
        yield cluster.sim.timeout(0.3)
        finished.append(cluster.sim.now)

    svc.expose(method, handler)
    agent = RpcAgent(client, "cli")
    caught = []

    def caller():
        try:
            yield from agent.call("srv", method,
                                  deadline=cluster.sim.now + 0.1)
        except RpcTimeout:
            caught.append(cluster.sim.now)

    client.spawn(caller())
    cluster.sim.run()
    assert caught == [pytest.approx(0.1)]   # caller gave up...
    assert len(finished) == 1               # ...but the handler completed
    assert bus.ops.get(f"d/srv.{method}") == 1
    assert svc.inflight == 0


def test_default_off_runs_are_replay_identical(monkeypatch):
    """All resilience knobs parked (features off) must not shift a single
    completion time, whatever the inert tuning fields say."""
    from repro.core import build_dufs_deployment

    def run_once(fault):
        dep = build_dufs_deployment(n_zk=3, n_backends=1, n_client_nodes=2,
                                    backend="local", seed=11,
                                    fault=fault)
        times = []

        def workload():
            yield from dep.mounts[0].mkdir("/d")
            times.append(dep.cluster.sim.now)
            for i in range(5):
                yield from dep.mounts[0].create(f"/d/f{i}")
                times.append(dep.cluster.sim.now)
            yield from dep.mounts[1].stat("/d/f0")
            times.append(dep.cluster.sim.now)

        dep.cluster.sim.run(until=dep.client_nodes[0].spawn(workload()))
        return times

    default = run_once(FaultToleranceParams())
    # Different inert settings; every feature gate still off.
    monkeypatch.setattr(FaultToleranceParams, "retry_refill", 0.7)
    monkeypatch.setattr(FaultToleranceParams, "breaker_threshold", 1)
    parked = run_once(FaultToleranceParams(op_budget=9.9,
                                           breaker_cooldown=9.0))
    assert default == parked
