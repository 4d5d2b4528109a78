"""Unit tests for the network fabric: latency, FIFO, failures, partitions."""

import pytest

from repro.sim import Cluster, Simulator
from repro.sim.network import GIGE_BANDWIDTH, GIGE_LATENCY, Network


def attach(net, endpoint, host):
    """Register ``endpoint`` with a hook that keeps what it is handed, as
    ``(payload, arrival time)``; returns that list."""
    got = []
    net.register(endpoint, lambda msg: got.append((msg.payload, net.sim.now)),
                 host)
    return got


def make_net():
    sim = Simulator()
    net = Network(sim)
    attach(net, "a", "hostA")
    return sim, net, attach(net, "b", "hostB")


def payloads(got):
    return [payload for payload, _ in got]


def test_small_message_latency():
    sim, net, got = make_net()
    net.send("a", "b", "hello", size=0)
    sim.run()
    assert got == [("hello", pytest.approx(GIGE_LATENCY))]


def test_bandwidth_term_scales_with_size():
    sim, net, got = make_net()
    size = 1_000_000
    net.send("a", "b", "bulk", size=size)
    sim.run()
    assert got[0][1] == pytest.approx(GIGE_LATENCY + size / GIGE_BANDWIDTH)


def test_loopback_is_cheaper_than_wire():
    sim = Simulator()
    net = Network(sim)
    attach(net, "a", "h1")
    local = attach(net, "a2", "h1")
    remote = attach(net, "b", "h2")
    net.send("a", "a2", "x", size=128)
    net.send("a", "b", "x", size=128)
    sim.run()
    assert local[0][1] < remote[0][1]


def test_fifo_per_pair_even_with_size_inversion():
    """A huge message sent first must not be overtaken by a tiny one."""
    sim, net, got = make_net()
    net.send("a", "b", "big", size=5_000_000)
    net.send("a", "b", "small", size=1)
    sim.run()
    assert payloads(got) == ["big", "small"]


def test_unknown_endpoint_rejected():
    sim, net, _ = make_net()
    with pytest.raises(KeyError):
        net.send("a", "nope", "x")


def test_down_destination_drops():
    sim, net, got = make_net()
    net.set_down("b")
    net.send("a", "b", "x")
    sim.run()
    assert got == []


def test_crash_mid_flight_drops_message():
    sim, net, got = make_net()

    def killer():
        yield sim.timeout(GIGE_LATENCY / 2)
        net.set_down("b")

    sim.process(killer())
    net.send("a", "b", "x")
    sim.run()
    assert got == []


def test_recovery_allows_delivery_again():
    sim, net, got = make_net()
    net.set_down("b")
    net.send("a", "b", "lost")
    net.set_down("b", False)
    net.send("a", "b", "kept")
    sim.run()
    assert payloads(got) == ["kept"]


def test_partition_blocks_cross_group_only():
    sim = Simulator()
    net = Network(sim)
    attach(net, "a", "h1")
    b, c = attach(net, "b", "h2"), attach(net, "c", "h3")
    net.partition([["h1", "h2"], ["h3"]])
    net.send("a", "b", "ok")
    net.send("a", "c", "blocked")
    sim.run()
    assert payloads(b) == ["ok"]
    assert c == []
    net.heal()
    net.send("a", "c", "after-heal")
    sim.run()
    assert payloads(c) == ["after-heal"]


def test_same_host_traffic_survives_partition():
    sim = Simulator()
    net = Network(sim)
    attach(net, "a", "h1")
    a2 = attach(net, "a2", "h1")
    net.partition([["h1"], ["h2"]])
    net.send("a", "a2", "local")
    sim.run()
    assert payloads(a2) == ["local"]


def test_cluster_wires_everything_together():
    cluster = Cluster(seed=7)
    n1 = cluster.add_node("n1", cores=4)
    assert cluster.nodes["n1"] is n1
    with pytest.raises(ValueError):
        cluster.add_node("n1")
    # named streams are deterministic per seed
    a = Cluster(seed=7).streams.stream("x").random()
    b = Cluster(seed=7).streams.stream("x").random()
    c = Cluster(seed=8).streams.stream("x").random()
    assert a == b != c
