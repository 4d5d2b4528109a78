"""Fixtures for DUFS end-to-end tests."""

import pytest

from repro.core import build_dufs_deployment
from repro.svc import TraceBus


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
        self.cluster.sim.run()
        return [p.value for p in procs]

    def settle(self, duration=0.5):
        self.cluster.sim.run(until=self.cluster.sim.now + duration)

    def backend_file_counts(self):
        return [be.ns.count_files() for be in self.dep.backends]

    def spares(self):
        """Live spares over every mount: files made ahead of the create
        that will name them, one per mount that has created a file and
        ran its creates one at a time."""
        return sum(len(c.files.residue()[0]) for c in self.dep.clients)


def ops_at(bus, prefix, method=None):
    """Ops the trace bus counted at the endpoints whose key starts with
    ``prefix`` (``"lustre/"``: every Lustre server; ``"zk/zk"``: every
    ZooKeeper server), only ``method`` ones when it is named."""
    return sum(bus.ops.get(k) for k in bus.keys()
               if k.startswith(prefix)
               and (method is None or k.endswith(f".{method}")))


@pytest.fixture
def dufs():
    return DUFSHarness()


@pytest.fixture
def dufs_lustre():
    return DUFSHarness(backend="lustre", n_client_nodes=2, n_zk=3,
                       bus=TraceBus())
