"""Election edge cases: observers, partitions during votes, rejoins."""


import itertools

import pytest

from repro.models.params import FaultToleranceParams, ZKParams
from repro.sim import Cluster
from repro.zk import build_ensemble
from repro.zk.election import vote_order
from repro.zk.errors import ZKError

from .conftest import ZKHarness
from .test_chaos import start_random_crashes
from .test_failures import elect_harness, wait_for_leader

#: The timers and the client policy of the ledger's ``failover`` workload.
FAILOVER_TIMERS = dict(failure_detection=True, ping_interval=0.1,
                       ping_timeout=0.3, election_tick=0.05)
FAILOVER_RETRY = FaultToleranceParams(request_timeout=0.4, max_retries=30,
                                      backoff_cap=0.1)


def failover_harness(client_nodes=1):
    """Five servers on the fail-over timers, electing from t = 0 (sid 4
    wins: empty logs, highest sid)."""
    return ZKHarness(n_servers=5, n_nodes=5,
                     params=ZKParams(**FAILOVER_TIMERS),
                     static_leader=None, extra_client_nodes=client_nodes)


def spawn_writer(h, node, prefer_index, prefix, n=None):
    """A client on ``node`` creating ``prefix-0, prefix-1, ...`` (``n`` of
    them, or for ever) on the fail-over retry policy. Returns the process
    and the list it fills with the completion time of every success."""
    sim = h.cluster.sim
    cli = h.client(prefer_index=prefer_index, node=node, fault=FAILOVER_RETRY)
    done = []

    def writer():
        for i in itertools.islice(itertools.count(), n):
            try:
                yield from cli.create(f"{prefix}-{i}", b"")
            except ZKError:
                continue
            done.append(sim.now)

    return node.spawn(writer()), done


def rounds(h):
    return [s.stats["elections"] for s in h.ensemble.servers]


def synced_to_one_leader(servers):
    """Every live server is the one activated leader or a follower that
    has applied that leader's sync response."""
    live = [s for s in servers if not s.node.down]
    leaders = [s for s in live if s.role == "leading" and s.activated]
    if len(leaders) != 1:
        return False
    lead = leaders[0]
    return all(s is lead or (s.role == "following"
                             and s.leader_sid == lead.sid
                             and s.epoch == lead.epoch
                             and s.sid in lead.active_followers)
               for s in live)


def test_vote_order_prefers_zxid_then_sid():
    assert vote_order(10, 0) > vote_order(9, 5)
    assert vote_order(10, 5) > vote_order(10, 0)


def test_observer_never_becomes_leader_through_failures():
    params = ZKParams(failure_detection=True)
    cluster = Cluster(seed=9)
    nodes = [cluster.add_node(f"n{i}") for i in range(5)]
    cluster.add_node("cli")
    ens = build_ensemble(cluster, nodes, 3, params=params,
                         static_leader=None, n_observers=2)
    # Let the voters elect.
    cluster.sim.run(until=3.0)
    leaders = [s for s in ens.servers if s.role == "leading"]
    assert len(leaders) == 1 and not leaders[0].observer
    # Crash the leader; the replacement must again be a voter.
    leaders[0].node.crash()
    cluster.sim.run(until=cluster.sim.now + 5.0)
    leaders = [s for s in ens.servers
               if s.role == "leading" and not s.node.down]
    assert len(leaders) == 1
    assert not leaders[0].observer


def test_partition_during_election_resolves_after_heal():
    h = elect_harness(5, seed=21)
    # Partition BEFORE any leader exists: 2-node side can never elect.
    hosts = [s.node.name for s in h.ensemble.servers]
    h.cluster.network.partition([hosts[:2],
                                 hosts[2:] + [h.client_nodes[0].name]])
    h.settle(3.0)
    minority_leaders = [s for s in h.ensemble.servers[:2]
                        if s.role == "leading" and s.activated]
    assert not minority_leaders
    majority_leaders = [s for s in h.ensemble.servers[2:]
                        if s.role == "leading" and s.activated]
    assert len(majority_leaders) == 1
    # Heal: the stranded pair joins the established leader.
    h.cluster.network.heal()
    h.settle(4.0)
    assert all(s.role == "following" for s in h.ensemble.servers[:2])
    assert all(s.leader_sid == majority_leaders[0].sid
               for s in h.ensemble.servers[:2])


def test_two_crash_recover_cycles_preserve_data():
    h = elect_harness(3, seed=33)
    wait_for_leader(h)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=8))

    def write(tag):
        def gen():
            yield from cli.create(f"/cycle-{tag}", b"")
        return gen()

    h.run(write("a"))
    for cycle in range(2):
        leader = next(s for s in h.ensemble.servers
                      if s.role == "leading" and not s.node.down)
        leader.node.crash()
        wait_for_leader(h, timeout=8.0)
        h.run(write(f"b{cycle}"))
        leader.node.recover()
        h.settle(3.0)
    h.settle(2.0)
    live = [s for s in h.ensemble.servers if not s.node.down]
    assert len(live) == 3
    for s in live:
        for tag in ("a", "b0", "b1"):
            assert s.store.exists(f"/cycle-{tag}") is not None, (s.sid, tag)
    assert h.ensemble.converged()


# ---------------------------------------------------------------------------
# ROADMAP item 1: one owner per sync attempt (MODEL.md §6, "Election and
# sync as modelled") — the three recorded defects, then the residue.
# ---------------------------------------------------------------------------
def test_idle_ensemble_does_not_elect():
    """(c) The storm: an orphaned two-second-old sync attempt deposed a
    healthy leader, whose peers then hinted it into following itself —
    one refused round per 137 us, for ever, on an idle ensemble."""
    h, procs, _, crashes = start_random_crashes(23)
    h.cluster.sim.run(until=10.0)       # last victim back at t = 4.45 s
    assert all(p.triggered for p in procs)
    quiet = rounds(h)
    h.cluster.sim.run(until=25.0)
    assert rounds(h) == quiet, "elections on an idle, healthy ensemble"
    assert max(quiet) <= 4 * len(crashes), (quiet, crashes)


def test_stale_sync_attempt_does_not_depose_a_healthy_leader():
    """(b) Crash the highest-sid follower, recover it, crash the leader:
    the next leader must stay, and writes must keep completing."""
    h = failover_harness()
    sim = h.cluster.sim
    sim.run(until=0.5)
    _, done = spawn_writer(h, h.client_nodes[0], 0, "/w")
    leader, victim = h.ensemble.servers[4], h.ensemble.servers[3]
    assert h.ensemble.leader is leader
    sim.run(until=1.0)
    victim.node.crash()
    sim.run(until=1.25)
    victim.node.recover()
    sim.run(until=2.0)
    leader.node.crash()
    sim.run(until=3.0)
    new_leader = h.ensemble.leader
    assert new_leader is not None and new_leader.activated
    took_office = new_leader.stats["elections"]
    t = 3.0
    while t < 8.0:
        before = len(done)
        t += 0.25
        sim.run(until=t)
        assert len(done) > before, f"no create completed in [{t - 0.25}, {t})"
    assert h.ensemble.leader is new_leader and new_leader.activated
    assert new_leader.stats["elections"] == took_office, "deposed in between"
    assert max(rounds(h)) <= 6, rounds(h)


@pytest.mark.parametrize("k", range(8))
def test_rejoining_follower_applies_its_log_once(k):
    """(a) A ``commit`` cast landing between choosing a leader and applying
    its sync response made the applier and ``follow()`` apply the same
    recovered entries twice (``AssertionError: inconsistent replica``)."""
    h = failover_harness(client_nodes=4)
    sim = h.cluster.sim
    sim.run(until=0.5)
    writers = [spawn_writer(h, node, 1 + w % 3, f"/w{w}", n=400)[0]
               for w, node in enumerate(h.client_nodes)]
    victim = h.ensemble.servers[0]
    crash_at = 1.0 + 0.0137 * k
    sim.run(until=crash_at)
    victim.node.crash()
    sim.run(until=crash_at + 0.25 + 0.0071 * k)
    victim.node.recover()
    sim.run(until=8.0)
    assert all(w.triggered for w in writers)
    assert synced_to_one_leader(h.ensemble.servers)
    assert h.ensemble.converged()
    assert len({s.commit_index for s in h.ensemble.servers}) == 1


@pytest.mark.xfail(strict=True, reason=(
    "hearsay hints and a grace measured from t = 0: a member that has merely "
    "*chosen* the dead leader vouches for it (on_vote answers for any "
    "non-LOOKING role), so servers that just timed out on it follow it again "
    "on hearsay, and the rightly elected leader is deposed by its own "
    "watchdog 0.15 s after taking office (`now > ping_timeout` counts from "
    "t = 0). Measured 0.825 s; the item-1 role-machine PR flips this."))
def test_failover_settles_within_the_detector_bound():
    """The residue as an executable spec: after the leader dies, every live
    server is synced to ONE activated leader within 1.5 x ping_timeout +
    3 x election_tick."""
    h = failover_harness()
    sim = h.cluster.sim
    p = h.params
    follower = h.ensemble.servers[0]
    sim.run(until=0.30)     # so its watchdog ticks on another phase
    follower.node.crash()
    sim.run(until=0.55)
    follower.node.recover()
    sim.run(until=1.13)
    assert synced_to_one_leader(h.ensemble.servers)
    h.ensemble.leader.node.crash()
    sim.run(until=1.13 + 1.5 * p.ping_timeout + 3 * p.election_tick)
    assert synced_to_one_leader(h.ensemble.servers)
