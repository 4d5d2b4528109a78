"""Deadline propagation end-to-end: caller -> RPC -> kernel shedding."""

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
    cluster.run()
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
    cluster.run()
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
    cluster.run()
    assert caught == [pytest.approx(1.0)]   # failed fast, no waiting
    assert runs == []                       # nothing ever hit the wire


def test_dead_on_arrival_request_is_shed_at_admission():
    """A deadline tighter than the one-way network latency expires in
    flight: the kernel drops it before the handler runs and counts it."""
    cluster, server, client = make_cluster()
    bus = TraceBus()
    ran = []
    svc = Service(server, "srv", deployment="d", bus=bus)

    def h(src, args):
        ran.append(True)
        yield cluster.sim.timeout(1e-5)

    svc.expose("op", h)
    agent = RpcAgent(client, "cli")
    caught = []

    def caller():
        try:                                # 20us < the 60us network hop
            yield from agent.call("srv", "op",
                                  deadline=cluster.sim.now + 20e-6)
        except RpcTimeout:
            caught.append(True)

    client.spawn(caller())
    cluster.run()
    assert caught == [True] and ran == []
    assert bus.expired.get("d/srv.op") == 1
    assert not bus.ops.get("d/srv.op")      # shed, not a served op


def test_mid_service_cancel_for_reads():
    cluster, server, client = make_cluster()
    bus = TraceBus()
    finished = []
    svc = Service(server, "srv", deployment="d", bus=bus)

    def h_read(src, args):
        yield cluster.sim.timeout(0.5)
        finished.append("read")

    svc.expose("read", h_read)
    agent = RpcAgent(client, "cli")
    caught = []

    def caller():
        try:
            yield from agent.call("srv", "read",
                                  deadline=cluster.sim.now + 0.1)
        except RpcTimeout:
            caught.append(cluster.sim.now)

    client.spawn(caller())
    cluster.run()
    assert caught == [pytest.approx(0.1)]
    assert finished == []                   # handler was cancelled mid-run
    assert bus.expired.get("d/srv.read") == 1
    assert svc.inflight == 0


def test_writes_are_never_cancelled_mid_service():
    """Cancelling an in-flight mutation could lose acknowledged state:
    write handlers run to completion even past the caller's deadline."""
    cluster, server, client = make_cluster()
    bus = TraceBus()
    finished = []
    svc = Service(server, "srv", deployment="d", bus=bus)

    def h_put(src, args):
        yield cluster.sim.timeout(0.3)
        finished.append(cluster.sim.now)

    svc.expose("put", h_put, write=True)
    agent = RpcAgent(client, "cli")
    caught = []

    def caller():
        try:
            yield from agent.call("srv", "put",
                                  deadline=cluster.sim.now + 0.1)
        except RpcTimeout:
            caught.append(cluster.sim.now)

    client.spawn(caller())
    cluster.run()
    assert caught == [pytest.approx(0.1)]   # caller gave up...
    assert len(finished) == 1               # ...but the write completed
    assert not bus.expired.get("d/srv.put")


def test_default_off_runs_are_replay_identical():
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
    parked = run_once(FaultToleranceParams(op_budget=9.9, retry_refill=0.7,
                                           breaker_threshold=1,
                                           breaker_cooldown=9.0))
    assert default == parked
