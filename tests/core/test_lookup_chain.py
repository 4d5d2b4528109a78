"""The DUFS read side is one lookup chain — overlay → cache → source —
whatever the arm: the paper's znode lookup or the thin client's
server-side ``resolve``, cache off or on, commit-and-wait or
write-behind. One script, eight cells: every cell must report the same
POSIX outcomes (values and errnos), and each cell's ZooKeeper read count
is pinned to what the pre-chain client issued.
"""

import pytest

from repro.core import build_dufs_deployment
from repro.errors import (EEXIST, EINVAL, EISDIR, ENOENT, ENOTDIR,
                          FSError)
from repro.models.params import AsyncParams, CacheParams, ResolveParams
from repro.pfs.base import StatResult

CELLS = [(source, cache, mode)
         for source in ("znode", "thin")
         for cache in ("nocache", "cache")
         for mode in ("sync", "async")]

#: Sum of every client's ``stats["zk_reads"]`` after the script, recorded
#: on the commit before the read side was merged into one chain. The four
#: cache cells read once more since a path's data and child watches are
#: armed independently: B's ``readdir /w/d1`` now arms its child watch
#: although ``readdir /w`` already armed the data watch on ``/w/d1``, A's
#: removals under ``/w/d1`` fire it, and B's last ``readdir /w`` re-reads
#: ``/w/d1`` instead of serving a stale ``num_children``. The two
#: cache+async cells read 3 more since the write-behind drain primes the
#: cache with each create it lands: A's 7 creates cost 7 primes, and A's
#: later lookups of ``/w/f``, ``/w/d1/g``, ``/w/d1/d2/h`` and ``/w/d1/d2``
#: (rename, the unlinks, the rmdir) hit the primed entries instead of
#: reading.
PARENT_ZK_READS = {
    ("znode", "nocache", "sync"): 70,
    ("znode", "nocache", "async"): 65,
    ("znode", "cache", "sync"): 41,
    ("znode", "cache", "async"): 43,
    ("thin", "nocache", "sync"): 58,
    ("thin", "nocache", "async"): 53,
    ("thin", "cache", "sync"): 31,
    ("thin", "cache", "async"): 33,
}


def _norm(value):
    if isinstance(value, StatResult):
        return ("stat", value.st_mode, value.st_nlink, value.st_size)
    if isinstance(value, list):
        return sorted((e.name, e.is_dir) for e in value)
    return value


def run_script(source, cache, mode):
    dep = build_dufs_deployment(
        n_zk=3, n_backends=2, n_client_nodes=2, backend="local", seed=3,
        resolve=ResolveParams(enabled=source == "thin"),
        cache=CacheParams(enabled=cache == "cache"),
        awrite=AsyncParams(enabled=mode == "async"))
    sim = dep.cluster.sim
    a, b = dep.clients
    out = []

    def attempt(label, op, *args):
        try:
            value = yield from op(*args)
        except FSError as exc:
            out.append((label, "errno", exc.err))
        else:
            out.append((label, "ok", _norm(value)))

    def stage(node_index, *steps):
        def body():
            for label, op, *args in steps:
                yield from attempt(label, op, *args)
        sim.run(until=dep.client_nodes[node_index].spawn(body()))
        sim.run(until=sim.now + 0.1)     # replicas + watch casts settle

    stage(0,
          ("mkdir /w", a.mkdir, "/w"),
          ("mkdir /w/d1", a.mkdir, "/w/d1"),
          ("mkdir /w/d1/d2", a.mkdir, "/w/d1/d2"),
          ("create /w/f", a.create, "/w/f"),
          ("create /w/d1/g", a.create, "/w/d1/g"),
          ("create /w/d1/d2/h", a.create, "/w/d1/d2/h"),
          ("symlink /w/ln", a.symlink, "/w/f", "/w/ln"),
          # read-your-writes before any barrier
          ("a stat /w/d1/g", a.stat, "/w/d1/g"),
          ("a readdir /w/d1", a.readdir, "/w/d1"),
          ("a mkdir /w again", a.mkdir, "/w"),
          ("a mkdir under missing", a.mkdir, "/w/none/x"),
          ("a create under file", a.create, "/w/f/x"),
          ("flush", a.flush))
    reads = [("b readdir /w", b.readdir, "/w"),
             ("b readdir /w/d1", b.readdir, "/w/d1"),
             ("b stat /w", b.stat, "/w"),
             ("b stat /w/f", b.stat, "/w/f"),
             ("b stat /w/ln", b.stat, "/w/ln"),
             ("b readlink /w/ln", b.readlink, "/w/ln"),
             ("b readlink /w/f", b.readlink, "/w/f"),
             ("b stat /w/d1/d2/h", b.stat, "/w/d1/d2/h"),
             ("b stat missing", b.stat, "/w/d1/missing"),
             ("b stat missing chain", b.stat, "/w/no/such/dir/x"),
             ("b stat under file", b.stat, "/w/f/below"),
             ("b stat under symlink", b.stat, "/w/ln/below"),
             ("b readdir missing", b.readdir, "/w/d1/missing"),
             ("b rmdir a file", b.rmdir, "/w/f"),
             ("b unlink a dir", b.unlink, "/w/d1")]
    stage(1, *reads)
    stage(1, *reads)                     # repeats: hits where a cache is on
    stage(0,
          ("a unlink /w/d1/g", a.unlink, "/w/d1/g"),
          ("a rename /w/f", a.rename, "/w/f", "/w/f2"),
          ("a unlink /w/d1/d2/h", a.unlink, "/w/d1/d2/h"),
          ("a rmdir /w/d1/d2", a.rmdir, "/w/d1/d2"),
          ("flush", a.flush))
    stage(1,
          ("b stat removed", b.stat, "/w/d1/g"),
          ("b stat renamed-from", b.stat, "/w/f"),
          ("b stat renamed-to", b.stat, "/w/f2"),
          ("b readdir /w after", b.readdir, "/w"))
    return out, sum(c.stats["zk_reads"] for c in dep.clients)


@pytest.fixture(scope="module")
def cells():
    return {cell: run_script(*cell) for cell in CELLS}


def test_every_cell_reports_the_same_posix_outcomes(cells):
    reference, _ = cells[CELLS[0]]
    outcomes = dict((label, rest) for label, *rest in reference)
    # The script is not vacuous: every error class shows up.
    assert {v[1] for v in outcomes.values() if v[0] == "errno"} \
        == {EEXIST, EINVAL, EISDIR, ENOENT, ENOTDIR}
    for cell in CELLS[1:]:
        assert cells[cell][0] == reference, cell


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_zk_reads_match_the_pre_chain_client(cells, cell):
    assert cells[cell][1] == PARENT_ZK_READS[cell]
