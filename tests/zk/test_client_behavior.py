"""ZKClient plumbing: failover rotation, retries, watch plumbing."""

import pytest

from repro.models.params import FaultToleranceParams
from repro.sim import Cluster
from repro.zk import ZKClient
from repro.zk.errors import ConnectionLossError



def test_client_requires_servers():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    with pytest.raises(ValueError):
        ZKClient(node, [])


def test_prefer_must_be_known():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    with pytest.raises(ValueError):
        ZKClient(node, ["zk0"], prefer="zk9")


def test_fail_over_rotates_through_servers():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    cli = ZKClient(node, ["a", "b", "c"], prefer="b")
    assert cli.server == "b"
    cli._fail_over()
    assert cli.server == "c"
    cli._fail_over()
    assert cli.server == "a"
    cli._fail_over()
    assert cli.server == "b"


def test_timeout_without_retries_maps_to_connection_loss(zk3):
    cli = zk3.client(fault=FaultToleranceParams(
        request_timeout=0.2, max_retries=0))
    zk3.ensemble.servers[0].node.crash()  # cli prefers zk0

    def main():
        try:
            yield from cli.get("/x")
        except ConnectionLossError:
            return "loss"

    assert zk3.run(main()) == "loss"


def test_retries_fail_over_to_live_server(zk3):
    cli = zk3.client(prefer_index=1, fault=FaultToleranceParams(
        request_timeout=0.3, max_retries=3))

    def seed():
        yield from cli.create("/alive", b"yes")

    zk3.run(seed())
    zk3.ensemble.servers[1].node.crash()  # the preferred server dies

    def main():
        data, _ = yield from cli.get("/alive")
        return data, cli.server

    data, server = zk3.run(main())
    assert data == b"yes"
    assert server != zk3.ensemble.endpoints[1]


def test_default_watcher_receives_all_events(zk3):
    cli = zk3.client()
    seen = []
    cli.default_watcher = seen.append

    def main():
        yield from cli.create("/w", b"")
        yield from cli.get("/w", watch=True)  # boolean watch, no callback
        yield from cli.set_data("/w", b"x")
        yield zk3.cluster.sim.timeout(0.1)

    zk3.run(main())
    assert [(e.kind, e.path) for e in seen] == [("changed", "/w")]


def test_watch_callback_and_default_watcher_both_fire(zk3):
    cli = zk3.client()
    cb_events, default_events = [], []
    cli.default_watcher = default_events.append

    def main():
        yield from cli.create("/w", b"")
        yield from cli.get("/w", watch=cb_events.append)
        yield from cli.delete("/w")
        yield zk3.cluster.sim.timeout(0.1)

    zk3.run(main())
    assert len(cb_events) == 1
    assert len(default_events) == 1


def test_connect_close_lifecycle(zk3):
    cli = zk3.client()

    def main():
        session = yield from cli.connect()
        assert cli.session == session
        yield from cli.close()
        return cli.session

    assert zk3.run(main()) is None
