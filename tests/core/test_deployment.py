"""DUFSDeployment assembly helpers."""

import hashlib

import pytest

from repro.core import build_dufs_deployment
from repro.models.params import ElasticParams, SimParams


def test_mounts_and_nodes_round_robin():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    assert dep.mount_for(0) is dep.mounts[0]
    assert dep.mount_for(3) is dep.mounts[0]
    assert dep.mount_for(4) is dep.mounts[1]
    assert dep.node_for(5) is dep.client_nodes[2]


def test_call_runs_coroutine_to_completion():
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local")
    assert dep.call(dep.mounts[0].mkdir, "/x") is True

    def compound():
        yield from dep.mounts[0].create("/x/y")
        st = yield from dep.mounts[0].stat("/x/y")
        return st.is_file

    assert dep.call(lambda: compound())


def test_colocated_zk_prefers_local_server():
    dep = build_dufs_deployment(n_zk=4, n_backends=2, n_client_nodes=4,
                                backend="local", co_locate_zk=True)
    for i, zkc in enumerate(dep.zk_clients):
        assert zkc.server == dep.ensemble.endpoints[i]
        # server endpoint is registered on the same host as the client
        assert dep.cluster.network._hosts[zkc.server] == \
            dep.client_nodes[i].name


def test_dedicated_zk_nodes_are_separate():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local", co_locate_zk=False)
    zk_hosts = {dep.cluster.network._hosts[ep]
                for ep in dep.ensemble.endpoints}
    client_hosts = {n.name for n in dep.client_nodes}
    assert not (zk_hosts & client_hosts)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        build_dufs_deployment(backend="tapes")


def test_deterministic_client_ids():
    a = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=3,
                              backend="local", seed=5)
    b = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=3,
                              backend="local", seed=5)
    assert [c.files.fidgen.client_id for c in a.clients] == \
        [c.files.fidgen.client_id for c in b.clients]


def test_backend_counts_match_request():
    for kind, nb in (("local", 3), ("lustre", 2), ("pvfs", 2)):
        dep = build_dufs_deployment(n_zk=1, n_backends=nb, n_client_nodes=1,
                                    backend=kind)
        assert len(dep.backends) == nb
        assert all(len(c.backends) == nb for c in dep.clients)


# ---------------------------------------------------------------------------
# Topology pin: where every ZooKeeper server lands and which server every
# client's ZK client(s) prefer, for one shard and for several. Recorded on
# the tree that still built the two cases in separate arms; a builder that
# merges them must reproduce every cell (names, placement, preference).

@pytest.fixture
def manual_migrations(monkeypatch):
    """The elastic cells run registry and migrator only."""
    monkeypatch.setattr(ElasticParams, "autoscale", False)


def _topology(n_shards, co_locate, n_zk, elastic):
    dep = build_dufs_deployment(
        n_zk=n_zk, n_backends=2, n_client_nodes=8, backend="local",
        co_locate_zk=co_locate, n_shards=n_shards,
        params=SimParams(elastic=ElasticParams.elastic_on())
        if elastic else None)
    servers = tuple((ep, srv.node.name, srv.svc.shard)
                    for ens in dep.ensembles
                    for srv, ep in zip(ens.servers, ens.endpoints))
    clients = []
    for dufs, first in zip(dep.clients, dep.zk_clients):
        zks = [dufs.zk.client_for_shard(k) for k in range(n_shards)]
        assert zks[0] is first
        clients.append(tuple((z.agent.endpoint, z.server, z.shard)
                             for z in zks))
    migrator = tuple((z.agent.endpoint, z.server)
                     for z in dep.migrator.clients) if elastic else ()
    assert dep.ensemble is dep.ensembles[0]
    return servers, tuple(clients), migrator


# (n_shards, co_locate_zk, n_zk, elastic) -> sha256(repr(topology))[:16];
# the elastic plane needs >= 2 shards, so those cells do not exist.
TOPOLOGY_GOLDEN = {
    (1, True, 3, False): "4a4b58f95de1f012",
    (1, True, 8, False): "34b4fdf48488c648",
    (1, True, 16, False): "6b852eb24c5257d2",
    (1, False, 3, False): "2064607e96079d15",
    (1, False, 8, False): "376a6a4c3f583e98",
    (1, False, 16, False): "dd79970aa57d252e",
    (2, True, 3, False): "9ee5005bbad27cbf",
    (2, True, 3, True): "0b86476dd894a0da",
    (2, True, 8, False): "7556fe6e49f34ca5",
    (2, True, 8, True): "813ff79b249db882",
    (2, True, 16, False): "f74df93e0086bc68",
    (2, True, 16, True): "ca287d8839ee11e3",
    (2, False, 3, False): "e0c08bef16988a1d",
    (2, False, 3, True): "d30135e39747ad06",
    (2, False, 8, False): "a4e2b3c9785b5e4a",
    (2, False, 8, True): "896c26386191c641",
    (2, False, 16, False): "7a92a8b3ba9995d9",
    (2, False, 16, True): "2e2872d7a375a553",
    (4, True, 3, False): "e294172e68c03afa",
    (4, True, 3, True): "19d09939ec672abd",
    (4, True, 8, False): "666b6f370f5f7b2f",
    (4, True, 8, True): "24725f12f8ca7c38",
    (4, True, 16, False): "39a3bc32b8c4b321",
    (4, True, 16, True): "1f84e08e5ab3abe6",
    (4, False, 3, False): "2fe436599ba0e5eb",
    (4, False, 3, True): "9d104239a350c50b",
    (4, False, 8, False): "9f2b5ac06c87f286",
    (4, False, 8, True): "2b6e02c1d8c0b9be",
    (4, False, 16, False): "f6ef20af74715487",
    (4, False, 16, True): "367e980e47fedcdf",
}


@pytest.mark.parametrize(
    "cell", sorted(TOPOLOGY_GOLDEN),
    ids=lambda c: "shards{}-colocate{:d}-zk{}-elastic{:d}".format(*c))
@pytest.mark.usefixtures("manual_migrations")
def test_topology_pin(cell):
    topology = _topology(*cell)
    digest = hashlib.sha256(repr(topology).encode()).hexdigest()[:16]
    assert digest == TOPOLOGY_GOLDEN[cell], topology


@pytest.mark.usefixtures("manual_migrations")
def test_topology_pin_spot_values():
    """Two cells spelled out, so the digests above are not the only
    record of what the names look like."""
    servers, clients, _ = _topology(1, True, 3, False)
    assert servers == (("zk0", "client0", 0), ("zk1", "client1", 0),
                       ("zk2", "client2", 0))
    assert clients[1] == (("dufszk1", "zk1", 0),)
    assert clients[5] == (("dufszk5", "zk2", 0),)      # round-robin: 5 % 3
    servers, clients, migrator = _topology(2, True, 8, True)
    assert servers[4:6] == (("s1zk0", "client4", 1), ("s1zk1", "client5", 1))
    assert clients[4] == (("dufszk4s0", "s0zk0", 0), ("dufszk4s1", "s1zk0", 1))
    assert migrator == (("migzk0", "s0zk0"), ("migzk1", "s1zk0"))
