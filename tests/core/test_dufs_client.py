"""End-to-end DUFS behaviour (paper §IV design properties)."""

import stat

import pytest

from repro.core.mapping import physical_path
from repro.errors import (
    EEXIST,
    EIO,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FSError,
)
from repro.models.params import AsyncParams, CacheParams, ResolveParams
from repro.zk.errors import ConnectionLossError

from .conftest import DUFSHarness


def test_directory_ops_never_touch_backends(dufs):
    """Paper §IV-B: directory operations involve only ZooKeeper."""
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def main():
        yield from m.mkdir("/d")
        yield from m.mkdir("/d/sub")
        yield from m.stat("/d")
        yield from m.readdir("/d")
        yield from m.rmdir("/d/sub")

    dufs.run(main())
    assert client.stats["backend_ops"] == 0
    assert dufs.backend_file_counts() == [0, 0]


def test_directories_not_materialized_on_backends(dufs):
    m = dufs.mount(0)

    def main():
        for i in range(5):
            yield from m.mkdir(f"/dir{i}")

    dufs.run(main())
    for be in dufs.dep.backends:
        assert be.ns.count_dirs() == 1  # only the root


def test_file_lands_on_exactly_one_backend_at_fid_path(dufs):
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def main():
        yield from m.create("/data")

    dufs.run(main())
    fid = client.fidgen.client_id << 64  # counter 0
    expected_backend = client.mapping.backend_for(fid)
    counts = dufs.backend_file_counts()
    assert counts[expected_backend] == 1
    assert sum(counts) == 1
    ppath = physical_path(fid, client.layout)
    assert dufs.dep.backends[expected_backend].ns.exists(ppath)


def test_files_distribute_over_backends(dufs):
    m = dufs.mount(0)

    def main():
        for i in range(40):
            yield from m.create(f"/f{i}")

    dufs.run(main())
    counts = dufs.backend_file_counts()
    assert sum(counts) == 40
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
        fids.append(client.fidgen._counter - 1)
        yield from m.unlink("/f")
        yield from m.create("/f")
        fids.append(client.fidgen._counter - 1)

    dufs.run(main())
    assert fids[0] != fids[1]


def test_unlink_removes_physical_file(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/f")
        yield from m.unlink("/f")

    dufs.run(main())
    assert dufs.backend_file_counts() == [0, 0]


def test_create_eexist_rolls_back_physical_file(dufs):
    m = dufs.mount(0)

    def main():
        yield from m.create("/f")
        try:
            yield from m.create("/f")
        except FSError as e:
            return e.err

    assert dufs.run(main()) == EEXIST
    assert sum(dufs.backend_file_counts()) == 1  # no orphan


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


@pytest.mark.parametrize("arm", [
    dict(),
    dict(cache=CacheParams.caching_on()),
    dict(resolve=ResolveParams.resolve_on()),
    dict(awrite=AsyncParams.async_on()),
], ids=["default", "cache", "thin", "async"])
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
    client = dufs.dep.clients[0]

    def main():
        yield from m.mkdir("/d")
        yield from m.chmod("/d", 0o700)
        st_d = yield from m.stat("/d")
        backend_ops_before = client.stats["backend_ops"]
        yield from m.create("/f")
        yield from m.chmod("/f", 0o640)
        st_f = yield from m.stat("/f")
        return st_d, st_f, backend_ops_before

    st_d, st_f, _ = dufs.run(main())
    assert st_d.st_mode & 0o7777 == 0o700
    assert st_f.st_mode & 0o7777 == 0o640


def test_symlink_is_metadata_only(dufs):
    m = dufs.mount(0)
    client = dufs.dep.clients[0]

    def main():
        yield from m.create("/target")
        before = client.stats["backend_ops"]
        yield from m.symlink("/target", "/lnk")
        t = yield from m.readlink("/lnk")
        st = yield from m.stat("/lnk")
        return t, st, client.stats["backend_ops"] - before

    t, st, backend_ops = dufs.run(main())
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
    assert sum(dufs.backend_file_counts()) == 1  # old /b contents GC'd


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
    assert sum(dufs.backend_file_counts()) == 1  # loser rolled back


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
    assert c0.fidgen.client_id != c1.fidgen.client_id
    assert sum(dufs.backend_file_counts()) == 20


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
    for be in dufs_lustre.dep.backends:
        assert be.mds.ns.count_files() == 0  # all cleaned up
