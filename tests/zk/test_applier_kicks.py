"""The applier is woken only when it has something to apply.

A follower's logger used to kick the applier after every fsync ("commits
may now be applicable"); in the usual order — PROPOSE, fsync, ACK, then
COMMIT — nothing is committed yet, and the wake-up it bought ran
``_applicable() -> []`` and parked again. The kick now fires only when a
COMMIT is already pending. A follower is driven here by hand, message by
message, to hold both orders.
"""

from repro.zk.protocol import Commit, Propose

ZXID = (1 << 32) | 1
TXN = ("create", "/a", b"v", 0, False)


def follower_with_a_proposal(zk3):
    follower = zk3.ensemble.servers[1]
    zk3.settle(0.01)                       # pipelines started and parked
    sim = zk3.cluster.sim
    follower._f_propose("", Propose(ZXID, TXN, follower.epoch))
    p = follower.params
    return follower, sim, sim.now + p.follower_log_cpu + p.log_delay


def test_logging_before_the_commit_takes_no_id_for_the_applier(zk3):
    follower, sim, fsync_done = follower_with_a_proposal(zk3)
    sim.run(until=fsync_done - 1e-9)
    assert follower.log == []
    before = sim._eid
    sim.run(until=fsync_done + 1e-9)
    assert follower.log == [(ZXID, TXN)]
    # The ACK's delivery event and nothing else: no applier wake-up.
    assert sim._eid - before == 1
    assert follower._applier_idle and not follower._apply_kick.items

    # The COMMIT, when it comes, is what wakes the applier.
    follower._f_commit("", Commit(ZXID))
    assert not follower._applier_idle
    sim.run(until=sim.now + follower.params.apply_cpu + 1e-9)
    assert follower.commit_index == ZXID
    assert follower.store.get("/a")[0] == b"v"
    assert follower._applier_idle


def test_a_commit_that_beat_the_fsync_is_applied_at_fsync_completion(zk3):
    follower, sim, fsync_done = follower_with_a_proposal(zk3)
    sim.run(until=fsync_done - 1e-9)
    follower._f_commit("", Commit(ZXID))   # the cast, ahead of the fsync
    sim.run(until=fsync_done - 1e-10)
    # The applier woke, found the txn not logged yet, and parked.
    assert follower.commit_index == 0 and follower._applier_idle
    sim.run(until=fsync_done + follower.params.apply_cpu - 1e-9)
    assert follower.commit_index == 0      # applying since the fsync...
    sim.run(until=fsync_done + follower.params.apply_cpu + 1e-9)
    assert follower.commit_index == ZXID   # ...for exactly apply_cpu
    assert follower.store.get("/a")[0] == b"v"
