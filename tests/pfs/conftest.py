"""Shared harness for filesystem-client conformance tests."""

import pytest

from repro.sim import Cluster


class FSHarness:
    """A cluster with one filesystem under test and client helpers."""

    def __init__(self, kind: str, seed: int = 0, **kwargs):
        self.cluster = Cluster(seed=seed)
        self.client_nodes = [self.cluster.add_node(f"c{i}") for i in range(2)]
        if kind == "lustre":
            from repro.pfs.lustre import build_lustre
            self.fs = build_lustre(self.cluster, "testfs", **kwargs)
            self.clients = [self.fs.client(n) for n in self.client_nodes]
        elif kind == "pvfs":
            from repro.pfs.pvfs import build_pvfs
            self.fs = build_pvfs(self.cluster, "testfs", **kwargs)
            self.clients = [self.fs.client(n) for n in self.client_nodes]
        elif kind == "local":
            from repro.pfs.localfs import LocalFS
            self.fs = LocalFS(self.client_nodes[0])
            self.clients = [self.fs.client(), self.fs.client()]
        else:
            raise ValueError(kind)

    @property
    def cli(self):
        return self.clients[0]

    def run(self, gen, node_index=0):
        proc = self.client_nodes[node_index].spawn(gen)
        return self.cluster.sim.run(until=proc)

    def run_all(self, *gens):
        procs = [self.client_nodes[i % 2].spawn(g) for i, g in enumerate(gens)]
        self.cluster.sim.run()
        return [p.value for p in procs]


@pytest.fixture(params=["local", "lustre", "pvfs"])
def anyfs(request):
    return FSHarness(request.param)


@pytest.fixture
def lustre():
    return FSHarness("lustre")


@pytest.fixture
def pvfs():
    return FSHarness("pvfs")
