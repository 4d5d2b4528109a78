"""Property-based conformance: DUFS vs a POSIX namespace oracle.

A single client applies random operation sequences both to a full DUFS
deployment (FUSE → DUFS → ZooKeeper + 2 local back-ends) and to a plain
in-memory :class:`Namespace`. Every operation must succeed/fail alike
(same errno class), and the final virtual tree must list identically.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_dufs_deployment
from repro.errors import FSError
from repro.pfs.namespace import Namespace

names = st.sampled_from(["a", "b", "c"])
paths = st.lists(names, min_size=1, max_size=3).map(
    lambda cs: "/" + "/".join(cs))

ops = st.one_of(
    st.tuples(st.just("mkdir"), paths),
    st.tuples(st.just("create"), paths),
    st.tuples(st.just("rmdir"), paths),
    st.tuples(st.just("unlink"), paths),
    st.tuples(st.just("stat"), paths),
    st.tuples(st.just("rename"), paths, paths),
)


def oracle_apply(ns: Namespace, op):
    kind = op[0]
    if kind == "mkdir":
        ns.mkdir(op[1], 0o755, 1.0)
    elif kind == "create":
        ns.create(op[1], 0o644, 1.0)
    elif kind == "rmdir":
        ns.rmdir(op[1], 1.0)
    elif kind == "unlink":
        ns.unlink(op[1], 1.0)
    elif kind == "stat":
        ns.stat(op[1])
    elif kind == "rename":
        if op[1] == op[2]:
            ns.lookup(op[1])  # DUFS treats same-path rename as a no-op stat
        else:
            ns.rename(op[1], op[2], 1.0)


def tree_listing(ns: Namespace):
    out = []

    def rec(path, inode):
        for name in sorted(inode.entries or ()):
            child = ns.inodes[inode.entries[name]]
            p = f"{path}/{name}" if path != "/" else f"/{name}"
            out.append((p, child.is_dir))
            if child.is_dir:
                rec(p, child)

    rec("/", ns.root)
    return out


def spares(dep):
    """Each mount's live spares: one once a create of it drew a FID (it
    started one; every later create took it and started the next)."""
    out = [len(c.files.residue()[0]) for c in dep.clients]
    assert out == [int(c.files.fidgen._counter > 0) for c in dep.clients]
    return sum(out)


def dufs_listing(dep):
    """Walk the virtual namespace through the ZooKeeper leader's store."""
    from repro.core.metadata import DirPayload, decode_payload

    store = dep.ensemble.servers[0].store
    out = []
    for path in store.walk_paths():
        if path == "/":
            continue
        payload = decode_payload(store.get(path)[0])
        out.append((path, isinstance(payload, DirPayload)))
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(st.lists(ops, max_size=25))
def test_dufs_matches_posix_oracle(op_list):
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local")
    mount = dep.mounts[0]
    oracle = Namespace()
    mismatches = []

    def driver():
        for op in op_list:
            dufs_err = oracle_err = None
            try:
                if op[0] == "rename":
                    yield from mount.rename(op[1], op[2])
                else:
                    yield from getattr(mount, op[0])(op[1])
            except FSError as e:
                dufs_err = e.err
            try:
                oracle_apply(oracle, op)
            except FSError as e:
                oracle_err = e.err
            if dufs_err != oracle_err:
                mismatches.append((op, dufs_err, oracle_err))

    dep.call(lambda: driver())
    dep.cluster.sim.run()
    assert not mismatches, mismatches
    assert dufs_listing(dep) == tree_listing(oracle)
    # Physical files on the back-ends equal the number of virtual files
    # plus the mount's live spares.
    n_virtual_files = sum(1 for _, is_dir in tree_listing(oracle)
                          if not is_dir)
    assert sum(be.ns.count_files() for be in dep.backends) == \
        n_virtual_files + spares(dep)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ops, max_size=12), st.lists(ops, max_size=12))
def test_two_clients_still_converge(ops_a, ops_b):
    """Concurrent random clients: no invariant violations, replicas equal,
    and no orphaned physical files."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local")

    def driver(mount, op_list):
        for op in op_list:
            try:
                if op[0] == "rename":
                    yield from mount.rename(op[1], op[2])
                else:
                    yield from getattr(mount, op[0])(op[1])
            except FSError:
                pass

    dep.client_nodes[0].spawn(driver(dep.mounts[0], ops_a))
    dep.client_nodes[1].spawn(driver(dep.mounts[1], ops_b))
    dep.cluster.sim.run()
    assert dep.ensemble.converged()
    n_virtual_files = sum(1 for _, is_dir in dufs_listing(dep)
                          if not is_dir)
    assert sum(be.ns.count_files() for be in dep.backends) == \
        n_virtual_files + spares(dep)
