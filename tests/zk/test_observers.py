"""ZooKeeper observers: read fan-out without the write-quorum penalty.

An extension beyond the paper (real ZooKeeper grew observers in 3.3):
DUFS's central trade-off — Fig. 7's "more servers = slower writes, faster
reads" — dissolves if the extra read capacity comes from non-voting
replicas.
"""


from repro.sim import Cluster
from repro.svc import TraceBus
from repro.zk import ZKClient, build_ensemble


def build(n_voters, n_observers, seed=0, bus=None):
    cluster = Cluster(seed=seed)
    nodes = [cluster.add_node(f"n{i}")
             for i in range(n_voters + n_observers)]
    cnode = cluster.add_node("cli")
    ens = build_ensemble(cluster, nodes, n_voters, n_observers=n_observers,
                         bus=bus)
    return cluster, cnode, ens


def run(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


def test_observer_replicates_committed_state():
    cluster, cnode, ens = build(3, 2)
    cli = ZKClient(cnode, ens.endpoints, prefer=ens.endpoints[0])

    def main():
        for i in range(5):
            yield from cli.create(f"/o{i}", b"x")

    run(cluster, cnode, main())
    cluster.sim.run(until=cluster.sim.now + 0.5)
    for server in ens.servers:
        for i in range(5):
            assert server.store.exists(f"/o{i}") is not None, \
                (server.sid, server.observer, i)
    assert ens.converged()


def test_observer_serves_reads():
    bus = TraceBus()
    cluster, cnode, ens = build(3, 1, bus=bus)
    observer_ep = ens.endpoints[3]
    cli = ZKClient(cnode, ens.endpoints, prefer=ens.endpoints[0])
    ocli = ZKClient(cnode, ens.endpoints, prefer=observer_ep)

    run(cluster, cnode, cli.create("/via-voter", b"v"))
    cluster.sim.run(until=cluster.sim.now + 0.1)
    assert ens.servers[3].store.exists("/via-voter") is not None

    def main():
        data, _ = yield from ocli.get("/via-voter")
        return data

    assert run(cluster, cnode, main()) == b"v"
    assert bus.ops.get("zk/zk3.read") >= 1


def test_observer_never_acks_or_votes():
    cluster, cnode, ens = build(3, 2)
    cli = ZKClient(cnode, ens.endpoints, prefer=ens.endpoints[0])

    def main():
        for i in range(10):
            yield from cli.create(f"/w{i}")

    run(cluster, cnode, main())
    leader = ens.servers[0]
    assert leader.active_observers == {3, 4}
    # No outstanding entry ever saw an ack from an observer sid.
    assert all(sid < 3 for out in leader.outstanding.values()
               for sid in out.acks)


def test_quorum_excludes_observers():
    """3 voters + 2 observers: quorum is 2 (of voters), not 3 (of 5)."""
    cluster, cnode, ens = build(3, 2)
    assert all(s.quorum == 2 for s in ens.servers)
    # Crash BOTH observers: writes must still commit.
    ens.servers[3].node.crash()
    ens.servers[4].node.crash()
    cli = ZKClient(cnode, ens.endpoints, prefer=ens.endpoints[0])

    def main():
        yield from cli.create("/still-works")
        return (yield from cli.exists("/still-works"))

    assert run(cluster, cnode, main()) is not None


def test_observers_give_read_scaling_without_write_penalty():
    """The punchline: 3 voters + 5 observers reads ~like 8 servers but
    writes ~like 3 servers."""

    def measure(n_servers, n_observers):
        cluster = Cluster(seed=42)
        nodes = [cluster.add_node(f"client{i}") for i in range(8)]
        ens = build_ensemble(cluster, nodes, n_servers,
                             n_observers=n_observers)
        cluster.sim.run(until=0.5)  # let observers sync
        procs = 48
        clients = []
        for i in range(procs):
            node = nodes[i % 8]
            prefer = ens.endpoints[i % len(ens.endpoints)]
            clients.append(ZKClient(node, ens.endpoints, prefer=prefer,
                                    name=f"m{n_servers}-{n_observers}-{i}"))

        from repro.workloads.driver import run_phase

        def worker(phase, p):
            cli = clients[p]
            for i in range(15):
                if phase == "create":
                    yield from cli.create(f"/b-{p}-{i}", b"x")
                else:
                    yield from cli.get(f"/b-{p}-{i}")

        nodes_for = [nodes[i % 8] for i in range(procs)]
        w = run_phase(cluster.sim, "create", nodes_for,
                      [worker("create", p) for p in range(procs)], 15)
        r = run_phase(cluster.sim, "get", nodes_for,
                      [worker("get", p) for p in range(procs)], 15)
        return w.throughput, r.throughput

    w8, r8 = measure(8, 0)       # the paper's configuration
    w3o5, r3o5 = measure(3, 5)   # same machine count, 3 voters
    assert w3o5 > 1.15 * w8      # writes faster with a smaller quorum
    assert r3o5 > 0.8 * r8       # reads essentially unchanged
