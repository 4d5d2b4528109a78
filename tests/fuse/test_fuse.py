"""FUSE layer: dispatch, crossing costs, ENOSYS, dummy passthrough."""

import pytest

from repro.errors import ENOENT, ENOSYS, FSError
from repro.fuse import DummyFS, FuseMount, OperationTable
from repro.fuse.ops import FUSE_OPERATIONS
from repro.sim import Cluster


@pytest.fixture
def dummy():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n0")
    return cluster, node, DummyFS(node)


def run(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


def test_operation_table_rejects_unknown():
    with pytest.raises(ValueError):
        OperationTable({"frobnicate": lambda: None})


def test_operation_table_implemented_list(dummy):
    _, _, fs = dummy
    ops = fs.ops.implemented()
    for required in ("getattr", "mkdir", "create", "unlink", "rename"):
        assert required in ops


def test_unimplemented_op_is_enosys():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n0")
    mount = FuseMount(node, OperationTable({}))

    def main():
        try:
            yield from mount.stat("/x")
        except FSError as e:
            return e.err

    assert run(cluster, node, main()) == ENOSYS


def test_passthrough_roundtrip(dummy):
    cluster, node, fs = dummy

    def main():
        yield from fs.mkdir("/d")
        yield from fs.create("/d/f")
        st = yield from fs.stat("/d/f")
        entries = yield from fs.readdir("/d")
        return st.is_file, [e.name for e in entries]

    is_file, names = run(cluster, node, main())
    assert is_file and names == ["f"]


def test_crossing_cost_charged(dummy):
    cluster, node, fs = dummy
    p = fs.params

    def main():
        t0 = cluster.sim.now
        yield from fs.mkdir("/d")
        return cluster.sim.now - t0

    elapsed = run(cluster, node, main())
    assert elapsed >= p.crossing_cpu + p.completion_cpu


def test_errors_propagate_with_errno(dummy):
    cluster, node, fs = dummy

    def main():
        try:
            yield from fs.stat("/missing")
        except FSError as e:
            return e.err

    assert run(cluster, node, main()) == ENOENT
    assert fs.stats["errors"] == 1


def test_call_counter(dummy):
    cluster, node, fs = dummy

    def main():
        yield from fs.mkdir("/a")
        yield from fs.stat("/a")
        yield from fs.access("/a")

    run(cluster, node, main())
    assert fs.stats["calls"] == 3


def test_read_write_passthrough(dummy):
    cluster, node, fs = dummy

    def main():
        yield from fs.create("/f")
        n = yield from fs.write("/f", 0, b"abcdef")
        data = yield from fs.read("/f", 2, 3)
        return n, data

    n, data = run(cluster, node, main())
    assert n == 6
    assert data == b"cde"


def test_symlink_ops(dummy):
    cluster, node, fs = dummy

    def main():
        yield from fs.create("/t")
        yield from fs.symlink("/t", "/l")
        return (yield from fs.readlink("/l"))

    assert run(cluster, node, main()) == "/t"


def test_all_fuse_operations_are_strings():
    assert all(isinstance(op, str) for op in FUSE_OPERATIONS)
    assert len(set(FUSE_OPERATIONS)) == len(FUSE_OPERATIONS)
