"""Lustre-specific behaviour: single-MDS bottleneck, DLM, glimpse."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.params import LustreParams
from repro.pfs.lustre.dlm import LockManager
from repro.svc import TraceBus

from .conftest import FSHarness


def test_single_mds_serializes_all_metadata():
    """All metadata ops from both client nodes land on the one MDS."""
    bus = TraceBus()
    lustre = FSHarness("lustre", bus=bus)
    c0, c1 = lustre.clients

    def worker(cli, base):
        yield from cli.mkdir(f"/{base}")
        for i in range(5):
            yield from cli.create(f"/{base}/f{i}")

    lustre.run_all(worker(c0, "a"), worker(c1, "b"))
    mds = f"lustre/{lustre.fs.mds.endpoint}."
    assert sum(bus.ops.get(k) for k in bus.keys()
               if k.startswith(mds)) >= 12
    assert lustre.fs.mds.ns.count_files() == 10


def test_dentry_cache_avoids_lookup_rpcs(lustre):
    cli = lustre.cli

    def main():
        yield from cli.mkdir("/a")
        yield from cli.mkdir("/a/b")
        before = cli.stats["lookups"]
        for i in range(10):
            yield from cli.create(f"/a/b/f{i}")
        return cli.stats["lookups"] - before

    # Parents were just created by us -> fully cached, zero lookups.
    assert lustre.run(main()) == 0


def test_cross_client_mutation_revokes_locks(lustre):
    """Client 1 creating in a dir client 0 has cached must revoke."""
    c0, c1 = lustre.clients
    log = []

    def setup_and_watch():
        yield from c0.mkdir("/shared")
        yield from c0.create("/shared/seed")   # c0 now caches /shared lock
        log.append(("c0-revocations-before", c0.stats["revocations"]))

    def intruder():
        yield lustre.cluster.sim.timeout(1.0)
        yield from c1.create("/shared/other")  # must revoke c0's lock

    lustre.run_all(setup_and_watch(), intruder())
    assert c0.stats["revocations"] >= 1
    assert lustre.fs.mds.dlm.stats["revokes"] >= 1


def test_revoked_client_pays_lookups_again(lustre):
    """The lock on /d guards c0's cached dentries *inside* /d: once c1
    mutates /d, c0 must re-lookup /d/sub before operating under it."""
    c0, c1 = lustre.clients

    def phase0():
        yield from c0.mkdir("/d")
        yield from c0.mkdir("/d/sub")
        yield from c0.create("/d/sub/f0")

    lustre.run(phase0())

    def intrude():
        yield from c1.create("/d/from-c1")  # revokes c0's lock on /d

    lustre.run(intrude(), node_index=1)

    def phase1():
        before = c0.stats["lookups"]
        yield from c0.create("/d/sub/f1")
        return c0.stats["lookups"] - before

    assert lustre.run(phase1()) >= 1  # had to re-resolve /d/sub


def test_dlm_disabled_ablation():
    params = LustreParams(dlm_enabled=False)
    h = FSHarness("lustre", params=params)
    c0, c1 = h.clients

    def w0():
        yield from c0.mkdir("/d")
        for i in range(5):
            yield from c0.create(f"/d/a{i}")

    def w1():
        yield h.cluster.sim.timeout(0.5)
        for i in range(5):
            yield from c1.create(f"/d/b{i}")

    h.run_all(w0(), w1())
    assert c0.stats["revocations"] == 0
    assert h.fs.mds.dlm.stats["revokes"] == 0


def test_file_stat_pays_oss_glimpse(lustre):
    cli = lustre.cli

    def main():
        yield from cli.create("/f")
        yield from cli.write("/f", 0, b"z" * 500)
        st = yield from cli.stat("/f")
        return st.st_size

    assert lustre.run(main()) == 500
    # The write and the glimpse both hit an OSS.
    assert sum(len(o.objects) for o in lustre.fs.oss) == 1


def test_unlink_destroys_oss_object(lustre):
    cli = lustre.cli

    def main():
        yield from cli.create("/f")
        yield from cli.write("/f", 0, b"z")
        yield from cli.unlink("/f")
        yield lustre.cluster.sim.timeout(0.5)  # async destroy

    lustre.run(main())
    assert sum(len(o.objects) for o in lustre.fs.oss) == 0


def test_mds_throughput_saturates_with_offered_load():
    """More client processes than MDS capacity -> throughput plateaus."""
    done = {8: 0, 32: 0}

    for procs in (8, 32):
        hh = FSHarness("lustre", seed=procs)
        counter = [0]

        def worker(k, c=None, hh=hh, counter=counter):
            cli = hh.clients[k % 2]
            yield from cli.mkdir(f"/w{k}")
            while hh.cluster.sim.now < 1.0:
                yield from cli.create(f"/w{k}/f{counter[0]}")
                counter[0] += 1

        for k in range(procs):
            hh.client_nodes[k % 2].spawn(worker(k))
        hh.cluster.sim.run(until=1.0)
        done[procs] = counter[0]

    # 4x the processes must NOT give 4x throughput (single-MDS ceiling).
    assert done[32] < done[8] * 2.5
    assert done[8] > 100  # sanity: the system actually made progress


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(("/", "/a", "/a/b")),
                          st.sampled_from(("c0", "c1", "c2")))))
def test_kept_lock_count_is_the_sum_of_the_holder_sets(steps):
    """``resident_locks`` is kept by ``grant`` and ``revoke_all``; it must
    be the count the MDS charge used to sum on every call."""
    dlm = LockManager()
    for grant, resource, client in steps:
        if grant:
            dlm.grant(resource, client)
        else:
            dlm.revoke_all(resource, keep=client)
        assert dlm.resident_locks == sum(map(len, dlm._granted.values()))
