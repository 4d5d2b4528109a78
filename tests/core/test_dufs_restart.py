"""The stateless-client claim (paper §IV-I): DUFS clients hold no state
that matters — everything lives in ZooKeeper and the back-ends, so a
crashed/restarted client resumes with zero recovery work."""


from repro.core import DUFSClient, build_dufs_deployment
from repro.core.mapping import MappingFunction
from repro.zk.client import ZKClient


def restart_client(dep, index):
    """Simulate a client restart: a brand-new DUFS instance on the same
    node (fresh FID generator / caches), same ensemble and back-ends."""
    node = dep.client_nodes[index]
    zkc = ZKClient(node, dep.ensemble.endpoints,
                   prefer=dep.ensemble.endpoints[index % len(dep.ensemble.endpoints)],
                   name=f"restarted{index}")
    old = dep.clients[index]
    new = DUFSClient(node, zkc, old.backends,
                     mapping=MappingFunction(len(old.backends)))
    new.files.layout = old.files.layout
    return new


def test_restarted_client_sees_everything():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=1,
                                backend="local")
    m = dep.mounts[0]

    def before():
        yield from m.mkdir("/survivors")
        yield from m.create("/survivors/f")
        yield from m.write("/survivors/f", 0, b"data!")

    dep.call(lambda: before())
    fresh = restart_client(dep, 0)

    def after():
        st = yield from fresh.stat("/survivors/f")
        data = yield from fresh.read("/survivors/f", 0, 64)
        entries = yield from fresh.readdir("/survivors")
        return st.is_file, data, [e.name for e in entries]

    is_file, data, names = dep.call(lambda: after())
    assert is_file and data == b"data!" and names == ["f"]


def test_restarted_client_gets_fresh_client_id():
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local")
    old = dep.clients[0]
    fresh = restart_client(dep, 0)
    assert fresh.files.fidgen.client_id != old.files.fidgen.client_id
    assert fresh.files.fidgen._counter == 0  # counter reset, per §IV-E


def test_no_fid_collision_across_restart():
    """Old instance's files and new instance's files coexist: the fresh
    client id guarantees disjoint FIDs even though both counters start
    at zero."""
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local")
    m = dep.mounts[0]

    def phase1():
        for i in range(10):
            yield from m.create(f"/old{i}")

    dep.call(lambda: phase1())
    fresh = restart_client(dep, 0)

    def phase2():
        for i in range(10):
            yield from fresh.create(f"/new{i}")
        ok = 0
        for i in range(10):
            st = yield from fresh.stat(f"/old{i}")
            ok += st.is_file
        return ok

    assert dep.call(lambda: phase2()) == 10
    # And each instance's spare: the predecessor's is the unnamed file a
    # real restart leaves behind, no name maps to it.
    assert [len(c.files.residue()[0])
            for c in (dep.clients[0], fresh)] == [1, 1]
    assert sum(be.ns.count_files() for be in dep.backends) == 20 + 2


def test_restarted_client_can_delete_predecessors_files():
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local")
    m = dep.mounts[0]

    def phase1():
        yield from m.create("/doomed")

    dep.call(lambda: phase1())
    fresh = restart_client(dep, 0)

    def phase2():
        yield from fresh.unlink("/doomed")

    dep.call(lambda: phase2())
    dep.cluster.sim.run()               # the unlink's reclaim
    # The predecessor's spare stays; the fresh instance created nothing.
    assert [len(c.files.residue()[0])
            for c in (dep.clients[0], fresh)] == [1, 0]
    assert sum(be.ns.count_files() for be in dep.backends) == 0 + 1
