"""POSIX-semantics conformance, run against every filesystem client.

The same behavioural contract must hold for the local FS, the Lustre
client, and the PVFS client (and, in tests/core, for DUFS itself) — this
is what lets the paper swap back-ends under one DUFS prototype.

One exception: DUFS and PVFS follow no symlink in the middle of a path
(``/l/f`` with ``/l -> /d`` is ENOTDIR there; ``FOLLOWS`` below). DUFS
looks a whole path up as one znode, so a link it meets mid-path is just
a non-directory parent; ``PVFSClient._resolve`` resolves each component
by handle and never reads a link. The local FS and Lustre walk the path
through ``Namespace.lookup``, which follows one.
"""

import pytest

from repro.errors import (
    EEXIST,
    EINVAL,
    EISDIR,
    ELOOP,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    MAXSYMLINKS,
    FSError,
)
from repro.models.params import AsyncParams, CacheParams, ResolveParams
from tests.core.conftest import DUFSHarness

from .conftest import FSHarness


def expect_err(code):
    class _Ctx:
        def __init__(self):
            self.err = None

    return code


def test_mkdir_stat_roundtrip(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        st = yield from anyfs.cli.stat("/d")
        return st

    st = anyfs.run(main())
    assert st.is_dir
    assert st.st_nlink >= 2


def test_mkdir_eexist(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        try:
            yield from anyfs.cli.mkdir("/d")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == EEXIST


def test_mkdir_missing_parent_enoent(anyfs):
    def main():
        try:
            yield from anyfs.cli.mkdir("/no/such/parent")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == ENOENT


def test_create_and_stat_file(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        yield from anyfs.cli.create("/d/f")
        st = yield from anyfs.cli.stat("/d/f")
        return st

    st = anyfs.run(main())
    assert st.is_file
    assert st.st_size == 0


def test_stat_missing_enoent(anyfs):
    def main():
        try:
            yield from anyfs.cli.stat("/ghost")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == ENOENT


def test_unlink_then_stat_enoent(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        yield from anyfs.cli.unlink("/f")
        try:
            yield from anyfs.cli.stat("/f")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == ENOENT


def test_unlink_directory_eisdir(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        try:
            yield from anyfs.cli.unlink("/d")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == EISDIR


def test_rmdir_nonempty_enotempty(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        yield from anyfs.cli.create("/d/f")
        try:
            yield from anyfs.cli.rmdir("/d")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == ENOTEMPTY


def test_rmdir_file_enotdir(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        try:
            yield from anyfs.cli.rmdir("/f")
        except FSError as e:
            return e.err

    assert anyfs.run(main()) == ENOTDIR


def test_readdir_lists_entries(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        yield from anyfs.cli.create("/d/f1")
        yield from anyfs.cli.mkdir("/d/sub")
        entries = yield from anyfs.cli.readdir("/d")
        return entries

    entries = anyfs.run(main())
    assert [(e.name, e.is_dir) for e in entries] == [("f1", False), ("sub", True)]


def test_rename_file(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        yield from anyfs.cli.create("/d/old")
        yield from anyfs.cli.rename("/d/old", "/d/new")
        old = None
        try:
            yield from anyfs.cli.stat("/d/old")
            old = "exists"
        except FSError:
            pass
        st = yield from anyfs.cli.stat("/d/new")
        return old, st.is_file

    old, is_file = anyfs.run(main())
    assert old is None and is_file


def test_chmod_changes_permissions(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        yield from anyfs.cli.chmod("/f", 0o600)
        st = yield from anyfs.cli.stat("/f")
        return st

    st = anyfs.run(main())
    assert st.st_mode & 0o7777 == 0o600
    assert st.is_file


def test_truncate_sets_size(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        yield from anyfs.cli.truncate("/f", 4096)
        st = yield from anyfs.cli.stat("/f")
        return st.st_size

    assert anyfs.run(main()) == 4096


def test_access_existing(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        ok = yield from anyfs.cli.access("/f")
        try:
            yield from anyfs.cli.access("/ghost")
        except FSError as e:
            return ok, e.err

    ok, err = anyfs.run(main())
    assert ok and err == ENOENT


def test_symlink_readlink(anyfs):
    def main():
        yield from anyfs.cli.create("/target")
        yield from anyfs.cli.symlink("/target", "/link")
        t = yield from anyfs.cli.readlink("/link")
        return t

    assert anyfs.run(main()) == "/target"


def test_open_existing_file(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        fh = yield from anyfs.cli.open("/f")
        return fh

    assert anyfs.run(main()) is not None


def test_write_then_stat_size(anyfs):
    def main():
        yield from anyfs.cli.create("/f")
        n = yield from anyfs.cli.write("/f", 0, b"x" * 1000)
        st = yield from anyfs.cli.stat("/f")
        return n, st.st_size

    n, size = anyfs.run(main())
    assert n == 1000
    assert size == 1000


def test_two_clients_see_each_others_changes(anyfs):
    """No stale caching: client 1's create is visible to client 0."""
    c0, c1 = anyfs.clients
    order = []

    def writer():
        yield from c1.mkdir("/shared")
        yield from c1.create("/shared/from1")
        order.append("written")

    def reader():
        yield anyfs.cluster.sim.timeout(2.0)
        st = yield from c0.stat("/shared/from1")
        order.append(("seen", st.is_file))

    anyfs.run_all(writer(), reader())
    assert order == ["written", ("seen", True)]


def test_deep_tree(anyfs):
    def main():
        path = ""
        for d in range(6):
            path += f"/l{d}"
            yield from anyfs.cli.mkdir(path)
        yield from anyfs.cli.create(path + "/leaf")
        st = yield from anyfs.cli.stat(path + "/leaf")
        return st.is_file

    assert anyfs.run(main())


def errnos(ops):
    """Run each op in turn; the errno it failed with (None: it passed)."""
    out = []
    for op in ops:
        try:
            yield from op
            out.append(None)
        except FSError as e:
            out.append(e.err)
    return out


def test_ops_naming_the_root_are_einval(anyfs):
    c = anyfs.cli

    def main():
        yield from c.mkdir("/d")
        ops = [c.mkdir("/"), c.create("/"), c.symlink("/d", "/"),
               c.rmdir("/"), c.unlink("/"), c.rename("/", "/x"),
               c.rename("/d", "/"), c.readlink("/")]
        out = yield from errnos(ops)
        return out, [e.name for e in (yield from c.readdir("/"))]

    assert anyfs.run(main()) == ([EINVAL] * 8, ["d"])


def test_readlink_of_a_non_symlink_is_einval(anyfs):
    def main():
        yield from anyfs.cli.mkdir("/d")
        yield from anyfs.cli.create("/f")
        return (yield from errnos([anyfs.cli.readlink("/d"),
                                   anyfs.cli.readlink("/f")]))

    assert anyfs.run(main()) == [EINVAL, EINVAL]


def test_refused_renames_leave_both_names(anyfs):
    """Each refusal is decided before either name changes."""
    c = anyfs.cli

    def main():
        for d in ("/a", "/a/b", "/d", "/e"):
            yield from c.mkdir(d)
        yield from c.create("/e/x")
        yield from c.create("/f")
        out = yield from errnos([
            c.rename("/a", "/a/b/c"),   # a directory into its own subtree
            c.rename("/f", "/d"),       # a file onto a directory
            c.rename("/d", "/f"),       # a directory onto a file
            c.rename("/d", "/e"),       # onto a non-empty directory
        ])
        names = {}
        for d in ("/", "/a", "/e"):
            names[d] = [e.name for e in (yield from c.readdir(d))]
        return out, names

    assert anyfs.run(main()) == (
        [EINVAL, EISDIR, ENOTDIR, ENOTEMPTY],
        {"/": ["a", "d", "e", "f"], "/a": ["b"], "/e": ["x"]})


#: Each filesystem whose ``open`` follows a symlink, and the path it opens
#: through link ``{}``. The namespace filesystems follow a link mid-path
#: (a last component opens the link itself); DUFS follows the last one,
#: in each of its client arms. PVFS follows no link.
FOLLOWS = {
    "local": ("/{}/f", {}), "lustre": ("/{}/f", {}),
    "dufs": ("/{}", {}),
    "dufs-cache": ("/{}", dict(cache=CacheParams.caching_on())),
    "dufs-thin": ("/{}", dict(resolve=ResolveParams.resolve_on())),
    "dufs-async": ("/{}", dict(awrite=AsyncParams.async_on())),
}


@pytest.mark.parametrize("kind", [*FOLLOWS])
def test_open_follows_at_most_maxsymlinks_links(kind):
    """A chain of 40 links opens; a 41st, or a cycle, is ELOOP rather than
    a Python stack overflow."""
    via, arm = FOLLOWS[kind]
    if kind.startswith("dufs"):
        h = DUFSHarness(**arm)
        c = h.dep.clients[0]
    else:
        h = FSHarness(kind)
        c = h.cli

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        end = "/d" if via.endswith("/f") else "/d/f"
        for i in range(MAXSYMLINKS + 1):
            yield from c.symlink(f"/l{i - 1}" if i else end, f"/l{i}")
        yield from c.symlink("/b", "/a")
        yield from c.symlink("/a", "/b")
        return (yield from errnos([c.open(via.format(f"l{MAXSYMLINKS - 1}")),
                                   c.open(via.format(f"l{MAXSYMLINKS}")),
                                   c.open(via.format("a"))]))

    assert h.run(main()) == [None, ELOOP, ELOOP]
