"""DUFS file handles (Fig. 3's resolve-once open path) and statfs."""


from repro.errors import EBADF, EISDIR, ENOENT, FSError
from repro.svc import TraceBus

from .conftest import DUFSHarness, ops_at


def test_open_returns_handle_and_io_works(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/f")
        yield from m.write("/f", 0, b"hello-fh")
        fh = yield from m.open("/f")
        client = dufs.dep.clients[0]
        data = yield from client.pread(fh, 0, 64)
        n = yield from client.pwrite(fh, 8, b"!more")
        yield from m.release(fh)
        return fh, data, n

    fh, data, n = dufs.run(main())
    assert isinstance(fh, int) and fh > 0
    assert data == b"hello-fh"
    assert n == 5


def test_handle_io_skips_zookeeper():
    """The point of the FID indirection: I/O after open never touches the
    coordination service."""
    dufs = DUFSHarness(bus=TraceBus())
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def zk_trips():            # client reads, writes at the servers
        return client.stats["zk_reads"] + ops_at(dufs.dep.bus, "zk/zk",
                                                 "write")

    def main():
        yield from m.create("/f")
        fh = yield from m.open("/f")
        before = zk_trips()
        for i in range(10):
            yield from client.pwrite(fh, i * 4, b"data")
            yield from client.pread(fh, 0, 4)
        after = zk_trips()
        yield from m.release(fh)
        return after - before

    assert dufs.run(main()) == 0


def test_release_invalidates_handle(dufs):
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def main():
        yield from m.create("/f")
        fh = yield from m.open("/f")
        yield from m.release(fh)
        errs = []
        try:
            yield from client.pread(fh, 0, 1)
        except FSError as e:
            errs.append(e.err)
        try:
            yield from m.release(fh)
        except FSError as e:
            errs.append(e.err)
        return errs

    assert dufs.run(main()) == [EBADF, EBADF]


def test_open_errors(dufs):
    m = dufs.mount(0)

    def main():
        errs = []
        try:
            yield from m.open("/missing")
        except FSError as e:
            errs.append(e.err)
        yield from m.mkdir("/d")
        try:
            yield from m.open("/d")
        except FSError as e:
            errs.append(e.err)
        return errs

    assert dufs.run(main()) == [ENOENT, EISDIR]


def test_open_through_symlink_still_works(dufs):
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def main():
        yield from m.create("/target")
        yield from m.write("/target", 0, b"via-link")
        yield from m.symlink("/target", "/lnk")
        fh = yield from m.open("/lnk")
        data = yield from client.pread(fh, 0, 64)
        yield from m.release(fh)
        return data

    assert dufs.run(main()) == b"via-link"


def test_statfs_aggregates_backends(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.mkdir("/d")
        for i in range(8):
            yield from m.create(f"/d/f{i}")
        yield from m.write("/d/f0", 0, b"x" * 1000)
        return (yield from m.statfs())

    vfs = dufs.run(main())
    assert dufs.spares() == 1
    assert vfs.f_files == 8 + 1     # the back-ends count the spare's file
    assert vfs.f_bytes_used >= 1000
    # Two back-end mounts' capacity summed.
    assert vfs.f_capacity == 2 * 250 * 10**9


def test_statfs_on_lustre_backend(dufs_lustre):
    m = dufs_lustre.mount(0)

    def main():
        yield from m.create("/f")
        return (yield from m.statfs())

    vfs = dufs_lustre.run(main())
    assert dufs_lustre.spares() == 1
    assert vfs.f_files == 1 + 1     # the back-ends count the spare's file
    assert vfs.f_capacity > 0
