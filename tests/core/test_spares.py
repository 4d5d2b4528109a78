"""A synchronous mount's spares: physical files made ahead of the create
that will name them. A default-mode create takes the mount's oldest
spare and starts the next, so it waits only for its znode commit; the
first create, another mode and a create whose spare failed make their
file inline, as the paper's client does (Fig. 3 steps C/D)."""

from repro.chaos.audit import audit_dufs
from repro.core import build_dufs_deployment
from repro.core.fid import make_fid
from repro.core.mapping import physical_path
from repro.errors import EEXIST, EIO, FSError
from repro.models.params import AsyncParams
from repro.sim.core import AllOf


class Rig:
    """One settled client node over two local back-ends, recording each
    back-end call from then on as (process name, method, physical path).
    A create of a path in ``failing`` fails with EIO."""

    def __init__(self, **kwargs):
        self.dep = build_dufs_deployment(n_zk=3, n_backends=2,
                                         n_client_nodes=1, backend="local",
                                         **kwargs)
        self.sim = self.dep.cluster.sim
        self.node, self.client = self.dep.client_nodes[0], self.dep.clients[0]
        self.sim.run()                  # the mount's chain
        self.calls, self.failing = [], set()
        for be in self.client.backends:
            for method in ("create", "unlink", "mkdir"):
                self._record(be, method)

    def _record(self, be, method):
        inner = getattr(be, method)

        def wrapped(ppath, *args):
            self.calls.append((self.sim.active.name, method, ppath))
            if ppath in self.failing:
                raise FSError(EIO, ppath)
            return (yield from inner(ppath, *args))
        setattr(be, method, wrapped)

    def run(self, gen):
        """Run ``gen`` as the ``caller`` process, then let every spare it
        started finish; its value or the FSError."""
        def shielded():
            try:
                return (yield from gen)
            except FSError as exc:
                return exc
        proc = self.node.spawn(shielded(), "caller")
        value = self.sim.run(until=proc)
        self.sim.run()
        return value

    def pool(self):
        return list(self.client.files._spares)

    def ppath(self, fid):
        return physical_path(fid, self.client.files.layout)

    def take_calls(self):
        calls, self.calls = self.calls, []
        return calls

    def next_fid(self):
        gen = self.client.files.fidgen
        return make_fid(gen.client_id, gen._counter)


def test_a_mounts_first_create_makes_its_file_inline_and_starts_a_spare():
    rig = Rig()
    fid, spare = rig.next_fid(), rig.next_fid() + 1
    assert rig.run(rig.client.create("/f")) is True
    assert rig.take_calls() == [("caller", "create", rig.ppath(fid)),
                                ("dufs-spare", "create", rig.ppath(spare))]
    assert rig.pool() == [spare]


def test_a_warm_create_makes_no_back_end_call_and_starts_one_spare():
    rig = Rig()
    rig.run(rig.client.create("/a"))
    spare = rig.pool()[0]
    rig.take_calls()
    rig.run(rig.client.create("/b"))
    new = rig.pool()
    assert len(new) == 1 and new[0] != spare
    assert rig.take_calls() == [("dufs-spare", "create", rig.ppath(new[0]))]
    assert rig.client.files._fids["/b"] == spare  # /b names the spare's file


def test_a_non_default_mode_makes_its_file_inline_and_keeps_the_pool():
    rig = Rig()
    rig.run(rig.client.create("/a"))
    pool, fid = rig.pool(), rig.next_fid()
    rig.take_calls()
    rig.run(rig.client.create("/b", mode=0o600))
    assert rig.take_calls() == [("caller", "create", rig.ppath(fid))]
    assert rig.pool() == pool
    st = rig.run(rig.client.stat("/b"))
    assert st.st_mode & 0o7777 == 0o600


def test_an_eexist_loser_unlinks_its_spares_file():
    rig = Rig()
    rig.run(rig.client.create("/a"))
    spare = rig.pool()[0]
    rig.take_calls()
    err = rig.run(rig.client.create("/a"))
    assert isinstance(err, FSError) and err.err == EEXIST
    new = rig.pool()
    assert rig.take_calls() == [("dufs-spare", "create", rig.ppath(new[0])),
                                ("caller", "unlink", rig.ppath(spare))]
    report = audit_dufs(rig.dep)
    assert report.ok and report.checked_files == 1 + 1


def test_a_degraded_back_end_fails_eio_with_no_back_end_call():
    """Every back-end down: the oldest spare is kept for when its
    back-end is back, and the fresh FID's back-end is down too."""
    rig = Rig()
    rig.run(rig.client.create("/a"))
    pool = rig.pool()
    rig.take_calls()
    for b in range(2):
        rig.client.files.mark_backend_down(b)
    err = rig.run(rig.client.create("/b"))
    assert isinstance(err, FSError) and err.err == EIO
    assert rig.take_calls() == [] and rig.pool() == pool
    for b in range(2):
        rig.client.files.mark_backend_up(b)
    rig.run(rig.client.create("/b"))
    assert rig.client.files._fids["/b"] == pool[0]    # the kept spare
    assert audit_dufs(rig.dep).ok


def test_an_oldest_spare_on_a_degraded_back_end_stays_in_the_pool():
    """Only the spare's back-end is down: the create makes a fresh FID's
    file inline, failing only when that FID maps to the dead back-end
    too (the paper's slice), and leaves the pool as it was."""
    rig = Rig()
    rig.run(rig.client.create("/a"))
    pool = rig.pool()
    dead = rig.client.files.mapping.backend_for(pool[0])
    rig.client.files.mark_backend_down(dead)
    rig.take_calls()
    fid = rig.next_fid()
    out = rig.run(rig.client.create("/b"))
    if rig.client.files.mapping.backend_for(fid) == dead:
        assert isinstance(out, FSError) and out.err == EIO
        assert rig.take_calls() == []
    else:
        assert out is True
        assert rig.take_calls() == [("caller", "create", rig.ppath(fid))]
    assert rig.pool() == pool
    rig.client.files.mark_backend_up(dead)
    assert audit_dufs(rig.dep).ok


def test_a_create_whose_spare_failed_makes_its_file_inline():
    rig = Rig()
    rig.run(rig.client.create("/a"))
    doomed = rig.next_fid()             # the spare /b will start
    rig.failing.add(rig.ppath(doomed))
    rig.run(rig.client.create("/b"))
    assert rig.pool() == [doomed]
    rig.take_calls()
    fid = rig.next_fid()
    assert rig.run(rig.client.create("/c")) is True
    assert rig.pool() == [fid + 1]      # the next spare, started after it
    assert rig.take_calls() == [("caller", "create", rig.ppath(fid)),
                                ("dufs-spare", "create", rig.ppath(fid + 1))]
    assert rig.client.files._fids["/c"] == fid
    report = audit_dufs(rig.dep)
    assert report.ok and report.checked_files == 3 + 1


def test_the_pool_holds_at_most_the_peak_of_concurrent_creates():
    """Three creates at once: the first finds the pool empty and starts a
    spare, the second takes that spare while it is being made (the pool
    is empty while it waits), the third finds it empty again. So two
    spares, under the bound of three; a second wave of three finds them
    made, and each create takes one and starts one."""
    rig = Rig()
    for wave in "ab":
        callers = [rig.node.spawn(rig.client.create(f"/{wave}{i}"))
                   for i in range(3)]
        rig.sim.run(until=AllOf(rig.sim, callers))
        rig.sim.run()
        assert len(rig.pool()) == 2
    report = audit_dufs(rig.dep)
    assert report.ok and report.spares == 2
    assert report.checked_files == 6 + 2


def test_the_audit_counts_named_files_plus_live_spares():
    rig = Rig()
    rig.run(rig.client.mkdir("/d"))
    for i in range(5):
        rig.run(rig.client.create(f"/d/f{i}"))
    rig.run(rig.client.unlink("/d/f0"))
    report = audit_dufs(rig.dep)
    assert report.ok and (report.spares, report.lost_spares) == (1, 0)
    assert report.checked_files == 4 + 1
    assert report.to_dict()["spares"] == 1


def test_a_write_behind_mount_makes_no_spares():
    rig = Rig(awrite=AsyncParams.async_on())
    for path in ("/a", "/b"):
        rig.run(rig.client.create(path))
    assert rig.client.files._spares is None
    assert [(who.rsplit(".", 1)[1], method)
            for who, method, _ in rig.take_calls()] == \
        [("drain1", "create"), ("drain2", "create")]
    report = audit_dufs(rig.dep)
    assert report.ok and report.checked_files == 2 and report.spares == 0
