"""SingleEnsembleMDS: the MetadataService facade over one ZK ensemble."""

from repro.mds import MetadataService, SingleEnsembleMDS, as_metadata_service
from repro.models.params import ZKParams
from repro.sim import Cluster
from repro.zk import ZKClient, build_ensemble


def make_svc(seed=0):
    cluster = Cluster(seed=seed)
    nodes = [cluster.add_node(f"n{i}") for i in range(3)]
    cnode = cluster.add_node("cli")
    ens = build_ensemble(cluster, nodes, 3, params=ZKParams())
    zkc = ZKClient(cnode, ens.endpoints)
    return cluster, cnode, zkc, as_metadata_service(zkc)


def run(cluster, node, gen):
    return cluster.sim.run(until=node.spawn(gen))


def test_wrapping_is_idempotent_and_typed():
    _, _, zkc, svc = make_svc()
    assert isinstance(svc, SingleEnsembleMDS)
    assert isinstance(svc, MetadataService)
    assert as_metadata_service(svc) is svc       # pass-through, no re-wrap
    assert svc.n_shards == 1


def test_ops_delegate_to_the_wrapped_client():
    cluster, cnode, zkc, svc = make_svc()

    def go():
        yield from svc.create("/d", b"D:755:0:0")
        yield from svc.create("/d/f", b"F:00:644")
        data, _ = yield from svc.get("/d/f")
        kids = yield from svc.get_children("/d")
        yield from svc.multi([svc.op_delete("/d/f"),
                              svc.op_create("/d/g", b"F:01:644")])
        st = yield from svc.exists("/d/g")
        yield from svc.delete("/d/g", is_dir=False)   # hint is ignored
        yield from svc.delete("/d", is_dir=True)
        return data, kids, st is not None

    data, names, g_exists = run(cluster, cnode, go())
    assert data == b"F:00:644"
    assert names == ["f"]
    assert g_exists
    assert svc.last_retries == zkc.last_retries
