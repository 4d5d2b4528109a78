"""Link faults: loss, duplication, degradation — and their safety
properties (timeouts instead of hangs; duplicate delivery is harmless;
healthy runs never touch the chaos random stream)."""

from repro.sim import Cluster, RpcAgent, RpcTimeout
from repro.sim.network import CHAOS_STREAM


def build_pair(served=None):
    """A client and an echo server; ``served`` collects the argument of
    every request the server's handler ran."""
    cluster = Cluster(seed=1)
    snode = cluster.add_node("server", cores=2)
    cnode = cluster.add_node("client", cores=2)
    server = RpcAgent(snode, "svc")
    client = RpcAgent(cnode, "cli")

    def echo(src, args):
        if served is not None:
            served.append(args)
        yield from snode.cpu_work(1e-4)
        return args

    server.register("echo", echo)
    return cluster, snode, cnode, server, client


def test_total_loss_surfaces_as_timeout_not_hang():
    served = []
    cluster, snode, cnode, server, client = build_pair(served)
    cluster.network.degrade_link("client", "server", loss=1.0)
    outcome = []

    def caller():
        try:
            yield from client.call("svc", "echo", 1, timeout=0.5)
            outcome.append("ok")
        except RpcTimeout:
            outcome.append("timeout")

    cnode.spawn(caller())
    cluster.sim.run()
    assert outcome == ["timeout"]
    assert served == []       # the request was dropped on the wire
    assert cluster.sim.now < 1.0  # bounded, no hang


def test_restore_link_heals_loss():
    cluster, snode, cnode, server, client = build_pair()
    cluster.network.degrade_link("client", "server", loss=1.0)
    cluster.network.restore_link("client", "server")
    results = []

    def caller():
        value = yield from client.call("svc", "echo", 7, timeout=0.5)
        results.append(value)

    cnode.spawn(caller())
    cluster.sim.run()
    assert results == [7]


def test_duplicate_delivery_is_harmless():
    served = []
    cluster, snode, cnode, server, client = build_pair(served)
    # Duplicate every message in both directions: requests run the handler
    # twice (at-least-once), responses to settled calls are discarded.
    cluster.network.degrade_link("*", "*", duplicate=1.0)
    results = []

    def caller():
        for i in range(5):
            value = yield from client.call("svc", "echo", i, timeout=1.0)
            results.append(value)

    cnode.spawn(caller())
    cluster.sim.run()
    assert results == [0, 1, 2, 3, 4]
    assert sorted(served) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_latency_degradation_slows_but_delivers():
    base_cluster, snode, cnode, server, client = build_pair()
    done = []

    def caller():
        yield from client.call("svc", "echo", 1)
        done.append(base_cluster.sim.now)

    cnode.spawn(caller())
    base_cluster.sim.run()
    healthy = done[0]

    slow_cluster, snode2, cnode2, server2, client2 = build_pair()
    slow_cluster.network.degrade_link("*", "*", latency_factor=100.0)
    done2 = []

    def caller2():
        yield from client2.call("svc", "echo", 1)
        done2.append(slow_cluster.sim.now)

    cnode2.spawn(caller2())
    slow_cluster.sim.run()
    assert done2[0] > healthy * 10


def test_loopback_immune_to_wildcard_faults():
    cluster = Cluster(seed=1)
    node = cluster.add_node("host", cores=2)
    server = RpcAgent(node, "svc")
    client = RpcAgent(node, "cli")

    def echo(src, args):
        yield from node.cpu_work(1e-5)
        return args

    server.register("echo", echo)
    cluster.network.degrade_link("*", "*", loss=1.0)
    results = []

    def caller():
        value = yield from client.call("svc", "echo", 42, timeout=0.5)
        results.append(value)

    node.spawn(caller())
    cluster.sim.run()
    assert results == [42]


def test_healthy_runs_never_draw_from_chaos_stream():
    cluster, snode, cnode, server, client = build_pair()
    # A deterministic (non-stochastic) degradation installed and removed:
    cluster.network.degrade_link("client", "server", latency_factor=2.0)
    results = []

    def caller():
        value = yield from client.call("svc", "echo", 1)
        results.append(value)

    cnode.spawn(caller())
    cluster.sim.run()
    assert results == [1]
    # No loss/duplicate probability -> the chaos RNG stream was never
    # instantiated, so pre-chaos seeds replay byte-identically.
    assert CHAOS_STREAM not in cluster.streams._streams


def test_lossy_zab_links_never_lose_acknowledged_writes():
    """A dropped proposal leaves a hole in a follower's log; the follower
    must re-sync from the leader rather than apply later commits across
    the gap and silently diverge at the same commit index."""
    from repro.models.params import FaultToleranceParams
    from repro.svc import TraceBus
    from repro.zk.client import ZKClient
    from repro.zk.ensemble import build_ensemble
    from repro.zk.errors import ZKError

    cluster = Cluster(seed=3)
    nodes = [cluster.add_node(f"n{i}") for i in range(3)]
    bus = TraceBus()
    ens = build_ensemble(cluster, nodes, n_servers=3, bus=bus)
    cnode = cluster.add_node("cl")
    zkc = ZKClient(cnode, [s.endpoint for s in ens.servers], name="lz",
                   fault=FaultToleranceParams(request_timeout=0.4,
                                              max_retries=8))
    cluster.network.degrade_link("*", "*", loss=0.1, duplicate=0.05)
    acked = []

    def workload():
        for i in range(60):
            try:
                yield from zkc.create(f"/k{i}", b"v")
                acked.append(f"/k{i}")
            except ZKError:
                # Timeout/retry exhaustion or a NodeExists from our own
                # duplicate: outcome unknown, so nothing is guaranteed.
                pass
            yield cluster.sim.timeout(0.01)

    cnode.spawn(workload())
    cluster.sim.run(until=60.0)

    # Every acknowledged create is present on every replica's committed
    # tree once the ensemble quiesces (followers re-synced over the gaps).
    assert acked
    # A follower re-synced over a gap: the static leader (no election
    # without failure detection) served its follower_info.
    assert bus.ops.get("zk/zk0.follower_info") > 0
    leader = max(ens.servers, key=lambda s: s.commit_index)
    committed = set(leader.store.walk_paths())
    assert all(path in committed for path in acked)
    # No silent divergence: replicas at the same commit index carry the
    # same committed tree.
    for s in ens.servers:
        if s.commit_index == leader.commit_index:
            assert s.store.fingerprint() == leader.store.fingerprint()
