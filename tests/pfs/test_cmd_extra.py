"""Additional CMD coverage: attrs, readdir at root, concurrent clients."""


from repro.errors import ENOENT, FSError
from repro.pfs.cmd import build_cmd
from repro.sim import Cluster


def make(n_mds=2, seed=0):
    cluster = Cluster(seed=seed)
    nodes = [cluster.add_node(f"c{i}") for i in range(2)]
    fs = build_cmd(cluster, "cmd", n_mds=n_mds)
    return cluster, nodes, fs


def run(cluster, node, gen):
    proc = node.spawn(gen)
    return cluster.sim.run(until=proc)


def test_chmod_truncate_access():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        yield from cli.create("/f")
        yield from cli.chmod("/f", 0o640)
        yield from cli.truncate("/f", 512)
        yield from cli.access("/f")
        st = yield from cli.stat("/f")
        return st

    st = run(cluster, nodes[0], main())
    assert st.st_mode & 0o7777 == 0o640
    assert st.st_size == 512


def test_stat_root():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        return (yield from cli.stat("/"))

    assert run(cluster, nodes[0], main()).is_dir


def test_readdir_root_lists_both_kinds():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        yield from cli.mkdir("/d")
        yield from cli.create("/f")
        entries = yield from cli.readdir("/")
        return [(e.name, e.is_dir) for e in entries]

    assert run(cluster, nodes[0], main()) == [("d", True), ("f", False)]


def test_two_clients_share_namespace():
    cluster, nodes, fs = make()
    c0, c1 = fs.client(nodes[0]), fs.client(nodes[1])
    seen = []

    def writer():
        yield from c0.mkdir("/shared")
        yield from c0.create("/shared/x")

    def reader():
        yield cluster.sim.timeout(1.0)
        st = yield from c1.stat("/shared/x")
        seen.append(st.is_file)

    nodes[0].spawn(writer())
    nodes[1].spawn(reader())
    cluster.sim.run()
    assert seen == [True]


def test_rename_missing_source():
    cluster, nodes, fs = make()
    cli = fs.client(nodes[0])

    def main():
        try:
            yield from cli.rename("/ghost", "/elsewhere")
        except FSError as e:
            return e.err

    assert run(cluster, nodes[0], main()) == ENOENT
