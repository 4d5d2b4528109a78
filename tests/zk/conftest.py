"""Shared fixtures for ZooKeeper tests."""

import pytest

from repro.models.params import ZKParams
from repro.sim import Cluster
from repro.zk import ZKClient, build_ensemble


class ZKHarness:
    """A cluster, an ensemble, and helpers to run client coroutines."""

    def __init__(self, n_servers=3, n_nodes=3, seed=0, params=None,
                 static_leader=0, extra_client_nodes=1, bus=None):
        self.cluster = Cluster(seed=seed)
        self.nodes = [self.cluster.add_node(f"zknode{i}") for i in range(n_nodes)]
        self.client_nodes = [self.cluster.add_node(f"cli{i}")
                             for i in range(extra_client_nodes)]
        self.params = params or ZKParams()
        self.ensemble = build_ensemble(self.cluster, self.nodes, n_servers,
                                       params=self.params,
                                       static_leader=static_leader, bus=bus)
        self._cli_count = 0

    def client(self, prefer_index=0, node=None, **kwargs) -> ZKClient:
        node = node or self.client_nodes[0]
        return ZKClient(node, self.ensemble.endpoints,
                        prefer=self.ensemble.endpoints[prefer_index], **kwargs)

    def run(self, gen, node=None):
        """Drive one client coroutine to completion, return its value."""
        node = node or self.client_nodes[0]
        proc = node.spawn(gen)
        return self.cluster.sim.run(until=proc)

    def run_all(self, *gens):
        procs = [self.client_nodes[0].spawn(g) for g in gens]
        self.cluster.sim.run()
        return [p.value for p in procs]

    def settle(self, duration=1.0):
        self.cluster.sim.run(until=self.cluster.sim.now + duration)


@pytest.fixture
def zk3():
    return ZKHarness(n_servers=3)


@pytest.fixture
def zk1():
    return ZKHarness(n_servers=1, n_nodes=1)


@pytest.fixture
def zk5_elect():
    params = ZKParams(failure_detection=True)
    h = ZKHarness(n_servers=5, n_nodes=5, params=params, static_leader=None)
    return h
