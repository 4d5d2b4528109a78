"""Reliability: crashes, recovery, elections, quorum loss, partitions.

These exercise the paper's claim #3 — that a coordination-service-based
metadata layer maintains consistency and availability through failures
(as long as a majority of servers survives).
"""


from repro.models.params import FaultToleranceParams, ZKParams
from repro.zk.errors import ConnectionLossError

from .conftest import ZKHarness


def elect_harness(n=3, seed=0):
    params = ZKParams(failure_detection=True)
    return ZKHarness(n_servers=n, n_nodes=n, seed=seed, params=params,
                     static_leader=None)


def wait_for_leader(h, timeout=5.0):
    sim = h.cluster.sim
    deadline = sim.now + timeout
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.1, deadline))
        leaders = [s for s in h.ensemble.servers
                   if s.role == "leading" and s.activated and not s.node.down]
        if leaders:
            return leaders
    return [s for s in h.ensemble.servers
            if s.role == "leading" and s.activated and not s.node.down]


def test_initial_election_converges():
    h = elect_harness(3)
    leaders = wait_for_leader(h)
    assert len(leaders) == 1
    followers = [s for s in h.ensemble.servers if s.role == "following"]
    assert len(followers) == 2
    assert all(f.leader_sid == leaders[0].sid for f in followers)


def test_election_picks_highest_zxid():
    """A server with more logged history must win."""
    h = elect_harness(3)
    # Seed server 0 with a longer log before anyone votes... easiest:
    # let the ensemble elect, write, crash the leader, and check the
    # replacement has everything (next test does that). Here instead we
    # verify the (zxid, sid) tiebreak: with empty logs the highest sid wins.
    leaders = wait_for_leader(h)
    assert leaders[0].sid == 2


def test_writes_work_after_election():
    h = elect_harness(3)
    wait_for_leader(h)
    cli = h.client(prefer_index=0, fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=3))

    def main():
        yield from cli.create("/post-election", b"ok")
        return (yield from cli.get("/post-election"))

    data, _ = h.run(main())
    assert data == b"ok"


def test_leader_crash_failover_preserves_committed_writes():
    h = elect_harness(5, seed=3)
    wait_for_leader(h)
    cli = h.client(prefer_index=0, fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=8))

    def phase1():
        for i in range(5):
            yield from cli.create(f"/pre{i}", b"x")

    h.run(phase1())
    old_leader = next(s for s in h.ensemble.servers if s.role == "leading")
    old_leader.node.crash()

    leaders = wait_for_leader(h, timeout=10.0)
    assert len(leaders) == 1
    assert leaders[0].sid != old_leader.sid
    # All committed writes survive on the new leader.
    for i in range(5):
        assert leaders[0].store.exists(f"/pre{i}") is not None

    def phase2():
        yield from cli.create("/post", b"y")
        return (yield from cli.get("/post"))

    data, _ = h.run(phase2())
    assert data == b"y"


def test_crashed_follower_recovers_and_catches_up():
    h = elect_harness(3, seed=1)
    wait_for_leader(h)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=5))
    victim = next(s for s in h.ensemble.servers if s.role == "following")
    victim.node.crash()

    def writes():
        for i in range(8):
            yield from cli.create(f"/during{i}", b"")

    h.run(writes())
    victim.node.recover()
    h.settle(3.0)
    assert victim.role == "following"
    for i in range(8):
        assert victim.store.exists(f"/during{i}") is not None
    assert h.ensemble.converged()


def test_minority_partition_cannot_commit():
    h = elect_harness(3, seed=5)
    wait_for_leader(h)
    leader = next(s for s in h.ensemble.servers if s.role == "leading")
    # Partition the leader alone.
    others = [s.node.name for s in h.ensemble.servers if s is not leader]
    h.cluster.network.partition([[leader.node.name,
                                  h.client_nodes[0].name], others])
    cli = h.client(prefer_index=leader.sid, fault=FaultToleranceParams(
        request_timeout=1.0, max_retries=0))

    def try_write():
        try:
            yield from cli.create("/lost", b"")
            return "committed"
        except ConnectionLossError:
            return "refused"

    assert h.run(try_write()) == "refused"
    # The isolated leader must never have applied the write.
    assert leader.store.exists("/lost") is None


def test_majority_side_elects_new_leader_and_heals():
    h = elect_harness(5, seed=7)
    wait_for_leader(h)
    old = next(s for s in h.ensemble.servers if s.role == "leading")
    majority = [s.node.name for s in h.ensemble.servers if s is not old]
    h.cluster.network.partition(
        [[old.node.name], majority + [h.client_nodes[0].name]])
    h.settle(3.0)
    leaders = [s for s in h.ensemble.servers
               if s.role == "leading" and s.activated and s.sid != old.sid]
    assert len(leaders) == 1
    cli = h.client(prefer_index=leaders[0].sid, fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=5))

    def write():
        yield from cli.create("/healed", b"")

    h.run(write())
    # Heal: the old leader rejoins as a follower and converges.
    h.cluster.network.heal()
    h.settle(4.0)
    assert old.role != "leading"
    assert old.store.exists("/healed") is not None


def test_whole_ensemble_restarts_from_the_log():
    """Paper §IV-I: all servers can fail and restart from disk state.

    The durable txn log alone rebuilds the tree: every server crashes and
    recovers through the real path, and the re-elected ensemble holds
    every znode written before the outage."""
    h = elect_harness(3)
    wait_for_leader(h)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=5))

    def writes():
        for i in range(6):
            yield from cli.create(f"/persist{i}", bytes([i]))

    h.run(writes())
    h.settle(0.2)
    for s in h.ensemble.servers:
        s.node.crash()
    for s in h.ensemble.servers:
        s.node.recover()
    assert len(wait_for_leader(h)) == 1
    h.settle(2.0)
    for s in h.ensemble.servers:
        for i in range(6):
            assert s.store.exists(f"/persist{i}") is not None, (s.sid, i)
    assert len([s for s in h.ensemble.servers if s.role == "leading"]) == 1
    assert h.ensemble.converged()


def test_recovered_follower_catches_up_by_log_diff():
    h = elect_harness(3, seed=11)
    wait_for_leader(h)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=5))

    def writes(a, b):
        for i in range(a, b):
            yield from cli.create(f"/ck{i}", b"")

    h.run(writes(0, 5))
    h.settle(0.5)
    victim = next(s for s in h.ensemble.servers if s.role == "following")
    victim.node.crash()
    h.run(writes(5, 10))
    victim.node.recover()
    h.settle(3.0)
    for i in range(10):
        assert victim.store.exists(f"/ck{i}") is not None, i
    assert h.ensemble.converged()


def test_static_mode_follower_recovery():
    h = ZKHarness(n_servers=3, seed=2)
    cli = h.client(fault=FaultToleranceParams(
        request_timeout=2.0, max_retries=5))
    victim = h.ensemble.servers[2]
    victim.node.crash()

    def writes():
        for i in range(4):
            yield from cli.create(f"/s{i}", b"")

    h.run(writes())
    victim.node.recover()
    h.settle(2.0)
    for i in range(4):
        assert victim.store.exists(f"/s{i}") is not None
