"""End-to-end DUFS behaviour (paper §IV design properties)."""

import stat

import pytest

from repro.core.mapping import physical_dirs, physical_path
from repro.errors import (
    EEXIST,
    EINVAL,
    EIO,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FSError,
)
from repro.models.params import AsyncParams, CacheParams, ResolveParams
from repro.svc import TraceBus
from repro.zk.errors import ConnectionLossError

from .conftest import DUFSHarness, ops_at

#: The client arms: the paper's client, the coherent cache, the thin
#: (server-side resolve) client, and write-behind.
ARMS = pytest.mark.parametrize("arm", [
    dict(),
    dict(cache=CacheParams.caching_on()),
    dict(resolve=ResolveParams.resolve_on()),
    dict(awrite=AsyncParams.async_on()),
], ids=["default", "cache", "thin", "async"])


def errnos(ops):
    """Run each op in turn; the errno it failed with (None: it passed)."""
    out = []
    for op in ops:
        try:
            yield from op
            out.append(None)
        except FSError as exc:
            out.append(exc.err)
    return out


def test_directory_ops_never_touch_backends(dufs_lustre):
    """Paper §IV-B: directory operations involve only ZooKeeper. (The
    mount's hash-directory chain is the back-ends' traffic before them.)"""
    m = dufs_lustre.mount(0)
    dufs_lustre.cluster.sim.run()
    bus = dufs_lustre.dep.bus
    mount_ops = ops_at(bus, "lustre/")

    def main():
        yield from m.mkdir("/d")
        yield from m.mkdir("/d/sub")
        yield from m.stat("/d")
        yield from m.readdir("/d")
        yield from m.rmdir("/d/sub")

    dufs_lustre.run(main())
    assert ops_at(bus, "lustre/") == mount_ops
    assert ops_at(bus, "zk/zk", "write") == 3


def test_directories_not_materialized_on_backends(dufs):
    m = dufs.mount(0)

    def main():
        for i in range(5):
            yield from m.mkdir(f"/dir{i}")

    dufs.run(main())
    # Only the root and the hash-directory chain each client made at its
    # mount: client ids share their high bits, so chains share a top.
    chains = {d for client in dufs.dep.clients
              for d in physical_dirs(client.files.fidgen.client_id << 64,
                                     client.files.layout)}
    for be in dufs.dep.backends:
        assert be.ns.count_dirs() == 1 + len(chains)
        assert all(be.ns.exists(d) for d in chains)


def test_file_lands_on_exactly_one_backend_at_fid_path(dufs):
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def main():
        yield from m.create("/data")

    dufs.run(main())
    fid = client.files.fidgen.client_id << 64  # counter 0
    spare = fid + 1                      # counter 1: the mount's spare
    assert client.files.residue() == ([spare], [])
    counts = dufs.backend_file_counts()
    assert sum(counts) == 1 + 1
    for f in (fid, spare):
        backend = client.files.mapping.backend_for(f)
        ppath = physical_path(f, client.files.layout)
        assert dufs.dep.backends[backend].ns.exists(ppath)
        assert not dufs.dep.backends[1 - backend].ns.exists(ppath)


def test_files_distribute_over_backends(dufs):
    m = dufs.mount(0)

    def main():
        for i in range(40):
            yield from m.create(f"/f{i}")

    dufs.run(main())
    counts = dufs.backend_file_counts()
    assert sum(counts) == 40 + 1    # and the mount's spare
    assert dufs.spares() == 1
    assert all(c > 5 for c in counts), counts  # both mounts used


def test_file_stat_forwards_to_physical_file(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/f")
        yield from m.write("/f", 0, b"x" * 123)
        st = yield from m.stat("/f")
        return st

    st = dufs.run(main())
    assert st.is_file
    assert st.st_size == 123


def test_rename_keeps_fid_and_physical_file(dufs):
    """Paper §IV-A: rename changes no data; the FID indirection absorbs it."""
    m = dufs.mount(0)

    def main():
        yield from m.create("/old")
        yield from m.write("/old", 0, b"payload")
        counts_before = dufs.backend_file_counts()
        yield from m.rename("/old", "/new")
        data = yield from m.read("/new", 0, 100)
        return counts_before, data

    counts_before, data = dufs.run(main())
    assert data == b"payload"
    assert dufs.backend_file_counts() == counts_before  # nothing moved


def test_delete_then_recreate_gets_new_fid(dufs):
    """Paper §IV-A: a name can denote different contents over time."""
    client = dufs.dep.clients[0]
    m = dufs.mount(0)
    fids = []

    def main():
        yield from m.create("/f")
        fids.append(client.files.fidgen._counter - 1)
        yield from m.unlink("/f")
        yield from m.create("/f")
        fids.append(client.files.fidgen._counter - 1)

    dufs.run(main())
    assert fids[0] != fids[1]


def test_unlink_removes_physical_file(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/f")
        yield from m.unlink("/f")

    dufs.run(main())
    assert sum(dufs.backend_file_counts()) == 0 + 1     # the mount's spare
    assert dufs.spares() == 1


def test_create_eexist_rolls_back_physical_file(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/f")
        try:
            yield from m.create("/f")
        except FSError as e:
            return e.err

    assert dufs.run(main()) == EEXIST
    # No orphan: the loser unlinked its spare's file and started the next.
    assert sum(dufs.backend_file_counts()) == 1 + 1
    assert dufs.spares() == 1


def test_posix_error_mapping(dufs):
    m = dufs.mount(0)

    def main():
        errs = []
        for op, expected in [
            (m.stat("/ghost"), ENOENT),
            (m.mkdir("/no/parent"), ENOENT),
            (m.rmdir("/ghost"), ENOENT),
        ]:
            try:
                yield from op
            except FSError as e:
                errs.append(e.err == expected)
        yield from m.mkdir("/d")
        yield from m.create("/d/f")
        try:
            yield from m.rmdir("/d")
        except FSError as e:
            errs.append(e.err == ENOTEMPTY)
        try:
            yield from m.unlink("/d")
        except FSError as e:
            errs.append(e.err == EISDIR)
        try:
            yield from m.rmdir("/d/f")
        except FSError as e:
            errs.append(e.err == ENOTDIR)
        return errs

    assert dufs.run(main()) == [True] * 6


@ARMS
def test_readdir_of_a_non_directory_is_enotdir(arm):
    """opendir's type check: a file or symlink znode lists as empty, so
    an empty listing of a path not known to be a directory is looked up
    once — through the client and through the FUSE mount, from the
    writing client (pending in the async arm) and from another one."""
    h = DUFSHarness(**arm)
    writer, reader = h.dep.clients
    reads = []

    def errno_of(gen):
        try:
            return (yield from gen)
        except FSError as exc:
            return exc.err

    def build():
        yield from writer.mkdir("/d")
        yield from writer.mkdir("/d/empty")
        yield from writer.create("/d/f")
        yield from writer.symlink("/d/f", "/d/ln")
        out = [(yield from errno_of(writer.readdir("/d/f"))),
               (yield from errno_of(h.mount(0).readdir("/d/ln")))]
        yield from writer.flush()
        return out

    def remote():
        out = []
        for path in ("/d/f", "/d/ln", "/d/empty", "/d/empty", "/d/ghost"):
            before = reader.stats["zk_reads"]
            out.append((yield from errno_of(h.mount(1).readdir(path))))
            reads.append(reader.stats["zk_reads"] - before)
        populated = yield from reader.readdir("/d")
        return out, sorted(e.name for e in populated)

    assert h.run(build()) == [ENOTDIR, ENOTDIR]
    h.settle(0.1)
    assert h.run(remote(), node_index=1) == (
        [ENOTDIR, ENOTDIR, [], [], ENOENT], ["empty", "f", "ln"])
    # listing + one type lookup; the proven-empty directory is remembered
    # (its second readdir pays the listing alone, or nothing when cached).
    assert reads[2] == 2 and reads[3] <= 1


@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("arm", [
    dict(), dict(resolve=ResolveParams.resolve_on()),
], ids=["paper", "thin"])
def test_readdir_through_a_file_is_enotdir(arm, n_shards):
    """A missing path is classified as a lookup classifies it: the chain
    breaking at a *file* is ENOTDIR, at a missing directory ENOENT."""
    h = DUFSHarness(n_shards=n_shards, **arm)
    client = h.dep.clients[0]

    def main():
        yield from client.create("/f")
        out = []
        for path in ("/f/x", "/f/x/y", "/missing/x", "/f"):
            try:
                yield from client.readdir(path)
            except FSError as exc:
                out.append(exc.err)
        return out

    assert h.run(main()) == [ENOTDIR, ENOTDIR, ENOENT, ENOTDIR]


@ARMS
def test_a_miss_below_a_fresh_file_is_enotdir(arm):
    """Below a file this client just created (in the async arm, acked
    and not yet drained) a lookup misses with ENOTDIR, as the namespace
    answers: the parent walk asks the pending-write overlay first."""
    h = DUFSHarness(**arm)
    client = h.dep.clients[0]

    def main():
        yield from client.create("/f")
        pending = client.mdcache.overlay_pending("/f")
        out = yield from errnos([client.stat("/f/x"), client.readdir("/f/x"),
                                 client.stat("/f/x/y")])
        return pending, out

    pending, out = h.run(main())
    assert pending == ("create" if "awrite" in arm else None)
    assert out == [ENOTDIR] * 3


@ARMS
def test_ops_naming_the_root_answer_as_the_namespace_does(arm):
    """A mutation naming ``/`` is EINVAL before any round trip; any
    other op looks ``/`` up as the root directory, although the root
    znode carries no DUFS payload."""
    h = DUFSHarness(**arm, bus=TraceBus())
    c = h.dep.clients[0]

    def writes():                         # at the ZooKeeper servers
        return ops_at(h.dep.bus, "zk/zk", "write")

    def main():
        yield from c.mkdir("/d")
        yield from c.flush()
        reads, written = c.stats["zk_reads"], writes()
        refused = yield from errnos([
            c.mkdir("/"), c.create("/"), c.symlink("/d", "/"), c.rmdir("/"),
            c.unlink("/"), c.rename("/", "/x"), c.rename("/d", "/"),
            c.chmod("/", 0o700)])
        trips = (c.stats["zk_reads"] - reads, writes() - written)
        looked_up = yield from errnos([
            c.readlink("/"), c.open("/"), c.truncate("/", 0),
            c.read("/", 0, 1), c.write("/", 0, b"x")])
        yield from c.flush()
        return refused, trips, looked_up, \
            [e.name for e in (yield from c.readdir("/"))]

    assert h.run(main()) == ([EINVAL] * 8, (0, 0),
                             [EINVAL] + [EISDIR] * 4, ["d"])
    assert sum(h.backend_file_counts()) == 0


@ARMS
def test_readlink_of_a_non_symlink_is_einval(arm):
    h = DUFSHarness(**arm)
    c = h.dep.clients[0]

    def main():
        yield from c.mkdir("/d")
        yield from c.create("/d/f")
        yield from c.symlink("/d/f", "/d/ln")
        out = yield from errnos([c.readlink("/d"), c.readlink("/d/f")])
        return out, (yield from c.readlink("/d/ln"))

    assert h.run(main()) == ([EINVAL, EINVAL], "/d/f")


@pytest.mark.parametrize("arm", [dict(), dict(cache=CacheParams.caching_on())],
                         ids=["default", "cache"])
def test_readdir_racing_an_unlink_lists_the_survivors(arm):
    """Another client's unlink commits between our listing and our child
    lookups: the entry is simply gone — not ENOENT for the whole readdir,
    and not an exception escaping a spawned lookup, which would abort the
    (strict) run."""
    h = DUFSHarness(**arm)
    reader, other = h.dep.clients
    listing = reader.mdcache.get_children

    def listing_then_unlink(path):
        names = yield from listing(path)
        yield from other.unlink("/d/y")
        return names

    def main():
        yield from other.mkdir("/d")
        for name in "xyz":
            yield from other.create(f"/d/{name}")
        reader.mdcache.get_children = listing_then_unlink
        entries = yield from reader.readdir("/d")
        return sorted(e.name for e in entries)

    assert h.run(main()) == ["x", "z"]


def test_readdir_fails_when_a_child_lookup_fails_for_another_reason(dufs):
    """Only a vanished child is skipped: any other lookup failure is the
    readdir's own, raised to its caller once every sibling lookup has
    settled — and the run goes on."""
    client = dufs.dep.clients[0]
    lookup = client.mdcache.get_payload

    def flaky(path):
        if path == "/d/y":
            raise ConnectionLossError(path)
        return (yield from lookup(path))

    def main():
        yield from client.mkdir("/d")
        for name in "xyz":
            yield from client.create(f"/d/{name}")
        client.mdcache.get_payload = flaky
        try:
            yield from client.readdir("/d")
        except FSError as exc:
            client.mdcache.get_payload = lookup
            return exc.err, len((yield from client.readdir("/d")))

    assert dufs.run(main()) == (EIO, 3)


def test_dir_stat_fields_from_zookeeper(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.mkdir("/d", 0o750)
        yield from m.mkdir("/d/a")
        yield from m.mkdir("/d/b")
        return (yield from m.stat("/d"))

    st = dufs.run(main())
    assert st.is_dir
    assert st.st_mode & 0o7777 == 0o750
    assert st.st_nlink == 4  # 2 + two children
    assert st.st_ctime > 0


def test_chmod_dir_via_zookeeper_file_via_backend(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.mkdir("/d")
        yield from m.chmod("/d", 0o700)
        st_d = yield from m.stat("/d")
        yield from m.create("/f")
        yield from m.chmod("/f", 0o640)
        st_f = yield from m.stat("/f")
        return st_d, st_f

    st_d, st_f = dufs.run(main())
    assert st_d.st_mode & 0o7777 == 0o700
    assert st_f.st_mode & 0o7777 == 0o640


def test_symlink_is_metadata_only(dufs_lustre):
    m = dufs_lustre.mount(0)
    bus = dufs_lustre.dep.bus

    def main():
        yield from m.create("/target")
        before = ops_at(bus, "lustre/")
        yield from m.symlink("/target", "/lnk")
        t = yield from m.readlink("/lnk")
        st = yield from m.stat("/lnk")
        return t, st, ops_at(bus, "lustre/") - before

    t, st, backend_ops = dufs_lustre.run(main())
    assert t == "/target"
    assert stat.S_ISLNK(st.st_mode)
    assert backend_ops == 0


def test_open_through_symlink(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/target")
        yield from m.write("/target", 0, b"via-link")
        yield from m.symlink("/target", "/lnk")
        data = yield from m.read("/lnk", 0, 64)
        return data

    assert dufs.run(main()) == b"via-link"


def test_dir_rename_moves_whole_subtree_atomically(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.mkdir("/proj")
        yield from m.mkdir("/proj/src")
        yield from m.create("/proj/src/main.c")
        yield from m.create("/proj/README")
        yield from m.rename("/proj", "/project")
        entries = yield from m.readdir("/project")
        st = yield from m.stat("/project/src/main.c")
        missing = yield from dufs.dep.clients[0].zk.exists("/proj")
        return [e.name for e in entries], st.is_file, missing

    names, is_file, missing = dufs.run(main())
    assert names == ["README", "src"]
    assert is_file
    assert missing is None


def test_rename_overwrites_existing_file_and_gcs_contents(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/a")
        yield from m.write("/a", 0, b"AAA")
        yield from m.create("/b")
        yield from m.write("/b", 0, b"BBBBBB")
        yield from m.rename("/a", "/b")
        data = yield from m.read("/b", 0, 64)
        return data

    assert dufs.run(main()) == b"AAA"
    dufs.settle()
    # Old /b contents GC'd; the other file is the mount's spare.
    assert sum(dufs.backend_file_counts()) == 1 + 1
    assert dufs.spares() == 1


def test_concurrent_create_same_name_exactly_one_wins(dufs):
    m0, m1 = dufs.mount(0), dufs.mount(1)
    results = []

    def racer(m, tag):
        try:
            yield from m.create("/race")
            results.append((tag, "won"))
        except FSError as e:
            results.append((tag, e.err))

    dufs.run_all(racer(m0, 0), racer(m1, 1))
    dufs.settle()
    outcomes = sorted(str(r[1]) for r in results)
    assert outcomes == sorted([str(EEXIST), "won"])
    # The loser rolled back; each mount made its first file inline and
    # keeps the spare that create started.
    assert sum(dufs.backend_file_counts()) == 1 + 2
    assert dufs.spares() == 2


def test_fig1_consistency_scenario(dufs):
    """Client 1 mkdirs /d1 while client 2 renames /d1 -> /d2: whatever the
    interleaving, the metadata ends in ONE consistent state everywhere."""
    m0, m1 = dufs.mount(0), dufs.mount(1)

    def creator():
        yield from m0.mkdir("/d1")

    def renamer():
        for _ in range(40):  # spin until /d1 appears, then rename
            try:
                yield from m1.rename("/d1", "/d2")
                return "renamed"
            except FSError:
                yield dufs.cluster.sim.timeout(0.001)
        return "never"

    dufs.run_all(creator(), renamer())
    dufs.settle()
    assert dufs.dep.ensemble.converged()
    store = dufs.dep.ensemble.servers[0].store
    assert store.exists("/d2") is not None
    assert store.exists("/d1") is None


def test_fids_unique_across_client_instances(dufs):
    m0, m1 = dufs.mount(0), dufs.mount(1)
    c0, c1 = dufs.dep.clients

    def worker(m, prefix):
        for i in range(10):
            yield from m.create(f"/{prefix}{i}")

    dufs.run_all(worker(m0, "a"), worker(m1, "b"))
    assert c0.files.fidgen.client_id != c1.files.fidgen.client_id
    assert sum(dufs.backend_file_counts()) == 20 + 2    # a spare per mount
    assert dufs.spares() == 2


def test_cross_client_visibility(dufs):
    m0, m1 = dufs.mount(0), dufs.mount(1)

    def writer():
        yield from m0.mkdir("/shared")
        yield from m0.create("/shared/file")
        yield from m0.write("/shared/file", 0, b"hello")

    def reader():
        yield dufs.cluster.sim.timeout(1.0)
        data = yield from m1.read("/shared/file", 0, 64)
        return data

    results = dufs.run_all(writer(), reader())
    assert results[1] == b"hello"


def test_dufs_over_lustre_backend(dufs_lustre):
    """The full paper stack: FUSE -> DUFS -> ZK + two Lustre instances."""
    m = dufs_lustre.mount(0)

    def main():
        yield from m.mkdir("/exp")
        for i in range(6):
            yield from m.create(f"/exp/f{i}")
        st = yield from m.stat("/exp/f3")
        entries = yield from m.readdir("/exp")
        for i in range(6):
            yield from m.unlink(f"/exp/f{i}")
        yield from m.rmdir("/exp")
        return st.is_file, len(entries)

    is_file, n = dufs_lustre.run(main())
    assert is_file and n == 6
    # Both Lustre MDSes served physical file ops; ZK held the namespace.
    bus = dufs_lustre.dep.bus
    mds_ops = [sum(bus.ops.get(k) for k in bus.keys()
                   if k.startswith(f"lustre/{be.mds.endpoint}."))
               for be in dufs_lustre.dep.backends]
    assert all(ops > 0 for ops in mds_ops)
    # All cleaned up but the mount's spare.
    assert sum(be.mds.ns.count_files()
               for be in dufs_lustre.dep.backends) == 0 + 1
    assert dufs_lustre.spares() == 1
