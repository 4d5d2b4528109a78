"""Clustered-MDS (CMD) model: semantics, partitioning, global-lock cost."""


from repro.errors import EEXIST, EISDIR, ENOENT, ENOTEMPTY, FSError
from repro.pfs.cmd import build_cmd
from repro.pfs.cmd.server import owner_index
from repro.sim import Cluster


def make(n_mds=2, seed=0):
    cluster = Cluster(seed=seed)
    nodes = [cluster.add_node(f"c{i}") for i in range(2)]
    fs = build_cmd(cluster, "cmd", n_mds=n_mds)
    return cluster, nodes, fs


def run(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


def test_basic_namespace_ops():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        yield from cli.mkdir("/a")
        yield from cli.mkdir("/a/b")
        yield from cli.create("/a/b/f")
        st = yield from cli.stat("/a/b/f")
        entries = yield from cli.readdir("/a/b")
        yield from cli.unlink("/a/b/f")
        yield from cli.rmdir("/a/b")
        yield from cli.rmdir("/a")
        return st.is_file, [e.name for e in entries]

    is_file, names = run(cluster, nodes[0], main())
    assert is_file and names == ["f"]
    assert sum(len(s.dirs) for s in fs.servers) == 1  # only "/"


def test_posix_errors():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        errs = []
        for op, code in [
            (cli.stat("/ghost"), ENOENT),
            (cli.mkdir("/no/parent"), ENOENT),
        ]:
            try:
                yield from op
            except FSError as e:
                errs.append(e.err == code)
        yield from cli.mkdir("/d")
        yield from cli.create("/d/f")
        try:
            yield from cli.mkdir("/d")
        except FSError as e:
            errs.append(e.err == EEXIST)
        try:
            yield from cli.rmdir("/d")
        except FSError as e:
            errs.append(e.err == ENOTEMPTY)
        try:
            yield from cli.unlink("/d")
        except FSError as e:
            errs.append(e.err == EISDIR)
        return errs

    assert run(cluster, nodes[0], main()) == [True] * 5


def test_directories_partition_across_servers():
    cluster, nodes, fs = make(n_mds=4)
    cli = fs.client(nodes[0])

    def main():
        for i in range(24):
            yield from cli.mkdir(f"/d{i}")

    run(cluster, nodes[0], main())
    populated = [s for s in fs.servers if len(s.dirs) > 0]
    assert len(populated) >= 3  # hash spreads dir objects around


def test_cross_server_mkdir_takes_global_lock():
    cluster, nodes, fs = make(n_mds=2)
    cli = fs.client(nodes[0])
    n = len(fs.server_endpoints)

    # Find a path whose dir object hashes away from its parent.
    cross = next(f"/x{i}" for i in range(100)
                 if owner_index(f"/x{i}", n) != owner_index("/", n))
    same = next(f"/y{i}" for i in range(100)
                if owner_index(f"/y{i}", n) == owner_index("/", n))

    def main():
        yield from cli.mkdir(same)
        before = fs.lock_server.stats["acquisitions"]
        yield from cli.mkdir(cross)
        return before, fs.lock_server.stats["acquisitions"]

    before, after = run(cluster, nodes[0], main())
    assert before == 0      # same-server mkdir: fast path
    assert after == 1       # cross-server mkdir: global lock


def test_rename_always_locks_globally():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        yield from cli.create("/f")
        yield from cli.rename("/f", "/g")
        st = yield from cli.stat("/g")
        return st.is_file, fs.lock_server.stats["acquisitions"]

    is_file, locks = run(cluster, nodes[0], main())
    assert is_file and locks == 1


def test_failed_cross_server_mkdir_rolls_back_dirent():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])
    n = len(fs.server_endpoints)
    cross = next(f"/x{i}" for i in range(100)
                 if owner_index(f"/x{i}", n) != owner_index("/", n))

    def main():
        yield from cli.mkdir(cross)
        # Force the second phase to fail: adopt_dir EEXISTs.
        try:
            yield from cli.mkdir(cross)
        except FSError as e:
            pass
        entries = yield from cli.readdir("/")
        return [e.name for e in entries]

    names = run(cluster, nodes[0], main())
    assert names.count(cross.lstrip("/")) == 1  # no duplicate dirent


def test_global_lock_serializes_concurrent_cross_server_mkdirs():
    """The paper's critique, measured: cross-MDS mkdirs cannot overlap."""
    cluster, nodes, fs = make(n_mds=4, seed=3)
    n = len(fs.server_endpoints)
    cross_paths = [p for p in (f"/c{i}" for i in range(200))
                   if owner_index(p, n) != owner_index("/", n)][:24]
    done = []

    def worker(paths, k):
        cli = fs.client(nodes[k % 2])
        for p in paths:
            yield from cli.mkdir(p)
            done.append(cluster.sim.now)

    chunk = len(cross_paths) // 4
    for k in range(4):
        nodes[k % 2].spawn(worker(cross_paths[k * chunk:(k + 1) * chunk], k))
    cluster.sim.run()
    assert fs.lock_server.stats["acquisitions"] == len(cross_paths)
    # Throughput is bounded by serialized lock-hold time, NOT by MDS count:
    # each hold spans two RPCs + journal, ~1ms+; 24 ops take > 15 ms.
    assert max(done) - min(done) > 0.01
