"""Fixtures for DUFS end-to-end tests."""

import pytest

from repro.core import build_dufs_deployment


class DUFSHarness:
    def __init__(self, **kwargs):
        kwargs.setdefault("n_zk", 3)
        kwargs.setdefault("n_backends", 2)
        kwargs.setdefault("n_client_nodes", 2)
        kwargs.setdefault("backend", "local")
        self.dep = build_dufs_deployment(**kwargs)
        self.cluster = self.dep.cluster

    def mount(self, i=0):
        return self.dep.mounts[i]

    def run(self, gen, node_index=0):
        proc = self.dep.client_nodes[node_index].spawn(gen)
        return self.cluster.sim.run(until=proc)

    def run_all(self, *gens):
        procs = [self.dep.client_nodes[i % len(self.dep.client_nodes)].spawn(g)
                 for i, g in enumerate(gens)]
        self.cluster.run()
        return [p.value for p in procs]

    def settle(self, duration=0.5):
        self.cluster.sim.run(until=self.cluster.sim.now + duration)

    def backend_file_counts(self):
        return [be.ns.count_files() for be in self.dep.backends]


@pytest.fixture
def dufs():
    return DUFSHarness()


@pytest.fixture
def dufs_lustre():
    return DUFSHarness(backend="lustre", n_client_nodes=2, n_zk=3,
                       trace=True)
