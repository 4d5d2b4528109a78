"""PVFS-specific behaviour: handle partitioning, resolve cost, sync txns."""

from repro.errors import EIO, FSError
from repro.models.params import FaultToleranceParams, PVFSParams

from .conftest import FSHarness


def total_objects(fs) -> int:
    return sum(len(s.objects) for s in fs.servers)


def test_metadata_spread_across_servers(pvfs):
    cli = pvfs.cli

    def main():
        yield from cli.mkdir("/d")
        for i in range(24):
            yield from cli.create(f"/d/f{i}")

    pvfs.run(main())
    with_objects = [s for s in pvfs.fs.servers if len(s.objects) > 0]
    # Datafiles land on every server; metadata spread over several.
    assert len(with_objects) == len(pvfs.fs.servers)


def test_create_allocates_datafile_on_every_server(pvfs):
    cli = pvfs.cli
    n = len(pvfs.fs.servers)

    def main():
        yield from cli.create("/f")

    pvfs.run(main())
    from repro.pfs.pvfs.server import DFILE_T
    dfiles = sum(1 for s in pvfs.fs.servers
                 for o in s.objects.values() if o.kind == DFILE_T)
    assert dfiles == n


def test_no_client_cache_resolve_rpcs_grow_with_depth(pvfs):
    cli = pvfs.cli

    def main():
        yield from cli.mkdir("/a")
        yield from cli.mkdir("/a/b")
        yield from cli.mkdir("/a/b/c")
        yield from cli.create("/a/b/c/f")
        base = cli.stats["rpcs"]
        yield from cli.stat("/a/b/c/f")   # resolve 4 + getattr + dfiles
        deep = cli.stats["rpcs"] - base
        base = cli.stats["rpcs"]
        yield from cli.stat("/a")         # resolve 1 + getattr
        shallow = cli.stats["rpcs"] - base
        return deep, shallow

    deep, shallow = pvfs.run(main())
    assert shallow == 2
    assert deep >= 5 + len(pvfs.fs.servers)
    # Crucially: a REPEATED stat pays the same cost (no cache).
    def again():
        base = cli.stats["rpcs"]
        yield from cli.stat("/a")
        return cli.stats["rpcs"] - base

    assert pvfs.run(again()) == shallow


def test_mutations_pay_sync_disk_txns(pvfs):
    cli = pvfs.cli

    def main():
        start = pvfs.cluster.sim.now
        yield from cli.mkdir("/slow")
        return pvfs.cluster.sim.now - start

    elapsed = pvfs.run(main())
    # mkdir = dir-object txn + dirent txn, each >= disk_txn
    assert elapsed >= pvfs.fs.params.disk_txn


def test_reads_do_not_touch_disk(pvfs):
    cli = pvfs.cli

    def setup():
        yield from cli.mkdir("/d")

    pvfs.run(setup())
    txns_before = sum(s.stats["txns"] for s in pvfs.fs.servers)

    def reads():
        for _ in range(5):
            yield from cli.stat("/d")

    pvfs.run(reads())
    assert sum(s.stats["txns"] for s in pvfs.fs.servers) == txns_before


def test_failed_create_leaves_no_orphans(pvfs):
    cli = pvfs.cli

    def main():
        yield from cli.create("/f")
        objs = total_objects(pvfs.fs)
        try:
            yield from cli.create("/f")  # EEXIST on crdirent
        except Exception:
            pass
        return objs

    objs_after_first = pvfs.run(main())
    # Second create rolled its orphan objects back.
    assert total_objects(pvfs.fs) == objs_after_first


def test_rename_overwrite(pvfs):
    cli = pvfs.cli

    def main():
        yield from cli.create("/src")
        yield from cli.create("/dst")
        before = total_objects(pvfs.fs)
        yield from cli.rename("/src", "/dst")
        st = yield from cli.stat("/dst")
        return before, st.is_file

    before, is_file = pvfs.run(main())
    assert is_file
    # The overwritten file's meta+datafiles were removed.
    n = len(pvfs.fs.servers)
    assert total_objects(pvfs.fs) == before - (1 + n)


def test_bounded_server_parallelism():
    """server_cores=1 means a server handles one request at a time."""
    params = PVFSParams(server_cores=1, getattr_cpu=5e-3)
    h = FSHarness("pvfs", params=params, n_servers=1)
    cli = h.cli

    def setup():
        yield from cli.mkdir("/d")

    h.run(setup())
    t0 = h.cluster.sim.now

    def stat_worker():
        yield from cli.stat("/d")

    for _ in range(4):
        h.client_nodes[0].spawn(stat_worker())
    h.cluster.run()
    # 4 stats, each with a 5 ms getattr, all serialized on the single
    # worker ≈ 20 ms; a fully parallel server would take ~5 ms.
    assert h.cluster.sim.now - t0 >= 0.018


def test_a_dead_server_fails_the_op_with_eio_not_the_run():
    """One server stays down past the client's retry window (5 x 0.5 s).
    Every file has a datafile there, so create, stat and unlink reach it
    from a parallel fan-out child: the child's failure is the *op's* —
    ``FSError(EIO)`` raised to the caller once the siblings settled —
    and must not escape the child, which would abort the whole run."""
    fault = FaultToleranceParams.backend(request_timeout=0.5, max_retries=4)
    h = FSHarness("pvfs", n_servers=4, params=PVFSParams(fault=fault))
    cli = h.cli

    def errno_of(gen):
        try:
            yield from gen
        except FSError as exc:
            return exc.err

    def main():
        for i in range(3):
            yield from cli.create(f"/f{i}")
        h.fs.servers[1].node.crash()
        out = [(yield from errno_of(cli.create("/g")))]
        for i in range(3):
            out.append((yield from errno_of(cli.stat(f"/f{i}"))))
            out.append((yield from errno_of(cli.unlink(f"/f{i}"))))
        return out

    assert h.run(main()) == [EIO] * 7
