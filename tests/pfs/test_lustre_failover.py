"""Lustre active/standby MDS failover (paper §III-A).

"Most parallel file systems have a single MDS, with a fail-over MDS that
becomes operational if the primary server becomes nonfunctional. Only one
MDS is operational at a given point in time."
"""

import pytest

from repro.errors import ENOENT, FSError
from repro.models.params import FaultToleranceParams, LustreParams
from repro.pfs.lustre import build_lustre
from repro.sim import Cluster


def make_failover_fs(seed=0):
    fault = FaultToleranceParams.backend(request_timeout=0.5, max_retries=4)
    params = LustreParams(fault=fault, failover_takeover_delay=1.0)
    cluster = Cluster(seed=seed)
    nodes = [cluster.add_node(f"c{i}") for i in range(2)]
    fs = build_lustre(cluster, "ha", params=params, with_standby=True)
    return cluster, nodes, fs


def run(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


def test_failover_requires_standby():
    cluster = Cluster(seed=0)
    fs = build_lustre(cluster, "nostandby")
    with pytest.raises(RuntimeError):
        fs.failover()


def test_namespace_survives_failover():
    cluster, nodes, fs = make_failover_fs()
    cli = fs.client(nodes[0])

    def phase1():
        yield from cli.mkdir("/data")
        yield from cli.create("/data/f1")

    run(cluster, nodes[0], phase1())
    fs.failover()
    cluster.sim.run(until=cluster.sim.now + 2.0)

    def phase2():
        st = yield from cli.stat("/data/f1")
        yield from cli.create("/data/f2")  # mutations work on the standby
        entries = yield from cli.readdir("/data")
        return st.is_file, [e.name for e in entries]

    is_file, names = run(cluster, nodes[0], phase2())
    assert is_file
    assert names == ["f1", "f2"]
    assert fs.mds.node is fs.standby_node


def test_client_blocks_then_recovers_through_failover():
    """An operation issued while the primary is dead retries until the
    standby takes over — the service gap equals the takeover delay."""
    cluster, nodes, fs = make_failover_fs()
    cli = fs.client(nodes[0])

    def setup():
        yield from cli.mkdir("/d")

    run(cluster, nodes[0], setup())
    fs.failover()
    t0 = cluster.sim.now

    def during():
        yield from cli.create("/d/file")  # primary is dead right now
        return cluster.sim.now - t0

    gap = run(cluster, nodes[0], during())
    assert gap >= fs.params.failover_takeover_delay * 0.9
    assert fs.mds.ns.exists("/d/file")


def test_failover_clears_client_caches():
    cluster, nodes, fs = make_failover_fs()
    cli = fs.client(nodes[0])

    def setup():
        yield from cli.mkdir("/a")
        yield from cli.mkdir("/a/b")

    run(cluster, nodes[0], setup())
    assert len(cli.dentries) > 1
    fs.failover()
    cluster.sim.run(until=cluster.sim.now + 2.0)
    assert cli.dentries == {"/": 1}

    def after():
        before = cli.stats["lookups"]
        yield from cli.create("/a/b/f")  # must re-resolve /a and /a/b
        return cli.stats["lookups"] - before

    assert run(cluster, nodes[0], after()) >= 2


def test_errors_still_posix_after_failover():
    cluster, nodes, fs = make_failover_fs()
    cli = fs.client(nodes[0])

    def setup():
        yield from cli.mkdir("/d")

    run(cluster, nodes[0], setup())
    fs.failover()
    cluster.sim.run(until=cluster.sim.now + 2.0)

    def after():
        try:
            yield from cli.stat("/ghost")
        except FSError as e:
            return e.err

    assert run(cluster, nodes[0], after()) == ENOENT
