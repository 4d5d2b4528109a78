"""What one unloaded ``create`` costs in creation ids, itemised.

``sim._eid`` counts everything the kernel ever scheduled (``sim.events`` in
the perfbench ledger). This pins the count for the simplest write on the
smallest real deployment, so a stray pipeline kick, a queue hop or a
wake-up that buys nothing shows up here as a one-line diff rather than as
a percent on a ledger.
"""

import dataclasses

import pytest

from repro.core import build_dufs_deployment

#: One ``create`` through a client whose preferred server is the co-located
#: leader, 3 servers, idle system (PR 19; 40 before it — each follower's
#: logger also woke its applier after the fsync, to find nothing):
CREATE_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # back-end (local FS): create CPU
    2,      # client -> leader: request delivery, the call's reserved timeout id
    2,      # leader: the request's dispatch slot, its handler process
    1,      # leader: write CPU
    2,      # leader -> followers: PROPOSE deliveries
    2,      # leader: logger kick, fsync
    2 * 4,  # each follower: PROPOSE slot, logger kick, log CPU, fsync
    2,      # followers -> leader: ACK deliveries
    2,      # leader: a dispatch slot per ACK
    2,      # leader: applier kick (the quorum ACK), apply CPU
    1,      # leader: the write handler's wait on its outcome fires
    2,      # leader -> followers: COMMIT deliveries
    1,      # leader -> client: response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
    2 * 3,  # each follower: COMMIT slot, applier kick, apply CPU
))


def test_one_unloaded_create_costs_exactly_these_creation_ids():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    client = dep.clients[0]

    def run(gen):
        sim.run(until=dep.client_nodes[0].spawn(gen))
        sim.run()                      # the followers' COMMITs too

    run(client.create("/warm"))        # physical directories, sessions
    before = sim._eid
    run(client.create("/f"))
    assert CREATE_IDS == 38
    assert sim._eid - before == CREATE_IDS


#: The same ``create`` through a client whose preferred server is a
#: co-located follower: the follower forwards it to the leader and holds
#: the reply until its own replica has applied the commit.
FORWARDED_CREATE_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # back-end (local FS): create CPU
    2,      # client -> follower: request delivery, the call's reserved timeout id
    2,      # follower: the request's dispatch slot, its handler process
    1,      # follower: forward CPU
    2,      # follower -> leader: request delivery, the call's reserved timeout id
    2,      # leader: the request's dispatch slot, its handler process
    1,      # leader: write CPU
    2,      # leader -> followers: PROPOSE deliveries
    2,      # leader: logger kick, fsync
    2 * 4,  # each follower: PROPOSE slot, logger kick, log CPU, fsync
    2,      # followers -> leader: ACK deliveries
    2,      # leader: a dispatch slot per ACK
    2,      # leader: applier kick (the quorum ACK), apply CPU
    1,      # leader: the write handler's wait on its outcome fires
    2,      # leader -> followers: COMMIT deliveries
    1,      # leader -> follower: response delivery
    2 * 3,  # each follower: COMMIT slot, applier kick, apply CPU
    2,      # follower: the call's waiter fires, then its any-of(timeout)
    1,      # follower: the read-your-writes hold, however many ticks long
    1,      # follower -> client: response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
))


@pytest.mark.parametrize("ticks", [0, 1, 5])
def test_a_forwarded_create_costs_the_same_however_long_its_reply_is_held(
        ticks):
    """The follower's apply is held back ``ticks`` extra ``log_delay``
    ticks. A polled hold took one id per tick (47, 48 and 52 here); a
    parked hold takes one, at the instant it parks."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    client, node = dep.clients[1], dep.client_nodes[1]
    follower = dep.ensemble.servers[1]
    assert follower.node is node and follower.role == "following"
    p = follower.params     # before the applier starts and binds them
    follower.params = dataclasses.replace(
        p, apply_cpu=p.apply_cpu + ticks * p.log_delay)

    def run(gen):
        sim.run(until=node.spawn(gen))
        sim.run()

    run(client.create("/warm"))
    before = sim._eid
    run(client.create("/f"))
    assert FORWARDED_CREATE_IDS == 47
    assert sim._eid - before == FORWARDED_CREATE_IDS
