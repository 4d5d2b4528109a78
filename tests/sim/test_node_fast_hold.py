"""``Node.cpu_work`` / ``disk_io`` take a free unit without a ``Request``.

On a free core the service timeout is itself the holder; on a full one
the ``Request`` path runs as before. The before — a ``Request`` every
time — is kept here as the reference, and mixed schedules must finish
every job at the same instant with the same creation-id counter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.resources as resources
from repro.sim import Cluster
from repro.sim.core import _PENDING, Interrupt, Timeout


def ref_cpu_work(node, seconds):
    """``Node.cpu_work`` as it was: request, grant round, timeout."""
    req = node.cpu.request()
    try:
        yield req
        yield node.sim.timeout(seconds)
    finally:
        node.cpu.release(req)


def run_jobs(work, cores, jobs, crash_at=None):
    """``jobs``: (start tick, service ticks). Returns each job's
    ``(name, outcome, end instant, ids consumed by then)`` in completion
    order."""
    cluster = Cluster(seed=0)
    node = cluster.add_node("n", cores=cores)
    sim = cluster.sim
    done = []

    def job(k, start, service):
        try:
            yield sim.timeout(start / 8)
            yield from work(node, service / 8)
        except Interrupt:
            done.append((k, "killed", sim.now, sim._eid))
        else:
            done.append((k, "done", sim.now, sim._eid))

    for k, (start, service) in enumerate(jobs):
        node.spawn(job(k, start, service))
    if crash_at is not None:
        def crasher():
            yield sim.timeout(crash_at / 8)
            node.crash()
        cluster.add_node("other").spawn(crasher())
    sim.run()
    return node, done


def fast(node, seconds):
    return node.cpu_work(seconds)


job_lists = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)),
                     min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), job_lists, st.one_of(st.none(), st.integers(0, 12)))
def test_fast_and_queued_holders_mix_into_the_same_fifo_schedule(
        cores, jobs, crash_at):
    node, done = run_jobs(fast, cores, jobs, crash_at)
    ref_node, ref_done = run_jobs(ref_cpu_work, cores, jobs, crash_at)
    assert done == ref_done
    assert node.cpu.users == ref_node.cpu.users == []
    assert not node.cpu.queue and not ref_node.cpu.queue


def test_a_free_core_is_taken_without_a_request(monkeypatch):
    built = []
    init = resources.Request.__init__
    monkeypatch.setattr(resources.Request, "__init__",
                        lambda self, res: (built.append(self),
                                           init(self, res))[1])
    cluster = Cluster(seed=0)
    node = cluster.add_node("n", cores=2)
    sim = cluster.sim
    holds = []

    def job(work, seconds):
        before = sim._eid
        gen = work(seconds)
        hold = next(gen)              # what the job blocks on first
        holds.append((hold, sim._eid - before))
        yield hold
        yield from gen

    node.spawn(job(node.cpu_work, 1.0))
    node.spawn(job(node.disk_io, 1.0))
    node.spawn(job(node.cpu_work, 2.0))
    sim.run(until=0.5)
    # Three free units: each job blocks on its service timeout, which took
    # the next creation id (a grant on a free unit never took one).
    assert built == []
    assert all(isinstance(h, Timeout) and ids == 1 for h, ids in holds)
    assert node.cpu.users == [holds[0][0], holds[2][0]]
    assert node.disk.users == [holds[1][0]]

    node.spawn(job(node.cpu_work, 1.0))          # both cores held: queues
    sim.run(until=0.75)
    assert len(built) == 1 and list(node.cpu.queue) == built
    assert holds[3] == (built[0], 0)
    sim.run()
    assert sim.now == 2.0                        # granted at 1.0, FIFO
    assert node.cpu.users == [] and node.disk.users == []


def test_a_crash_mid_hold_frees_nothing_on_the_replacement():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n", cores=1)
    sim = cluster.sim
    outcome = []

    def job(name):
        try:
            yield from node.cpu_work(1.0)
        except Interrupt:
            outcome.append((name, "killed"))

    node.spawn(job("holder"))        # fast path: its timeout holds the core
    node.spawn(job("waiter"))        # queued behind it with a Request
    sim.run(until=0.5)
    old = node.cpu
    (hold,), (waiting,) = old.users, old.queue
    node.crash()
    ids = sim._eid
    sim.run()                        # both die; neither release may raise
    assert outcome == [("holder", "killed"), ("waiter", "killed")]
    assert node.cpu is not old and node.cpu.users == [] \
        and not node.cpu.queue
    # The dead holder was unknown to the replacement, and the core it held
    # on the replaced Resource was not handed to the dead waiter either.
    assert old.users == [hold] and waiting._value is _PENDING
    assert sim._eid == ids           # no grant, no wake-up: no id taken
