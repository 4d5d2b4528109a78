"""What one unloaded ``create`` (warm, with a ready spare, and a mount's
first), ``stat`` (with and without a FID hint), ``mkdir``, ``unlink`` and
``rmdir`` cost in creation ids, itemised — and a write-behind ``create``,
split into its ack and its drain (with the cache on, the drain's prime).

``sim._eid`` counts everything the kernel ever scheduled (``sim.events`` in
the perfbench ledger). This pins the count for each of these ops on the
smallest real deployment, so a stray pipeline kick, a queue hop or a
wake-up that buys nothing shows up here as a one-line diff rather than as
a percent on a ledger.
"""

import pytest

from repro.core import build_dufs_deployment
from repro.models.params import AsyncParams, CacheParams, ZKParams

#: One warm ``create`` through a client whose preferred server is the
#: co-located leader, 3 servers, idle system. The spare it takes was made
#: by the create before it: its own back-end create is off its path, and
#: the next spare's is beside its znode create (37 before spares; 38 until
#: each follower's logger stopped waking its applier after the fsync).
CREATE_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # client: the next spare's process
    1,      # back-end (local FS): the next spare's create CPU
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

    run(client.create("/warm"))        # the first spare
    before = sim._eid
    run(client.create("/f"))
    assert CREATE_IDS == 39
    assert sim._eid - before == CREATE_IDS


#: A mount's first ``create`` finds no spare: it makes its own file inline,
#: as the paper's client does, and starts the first spare beside it.
FIRST_CREATE_IDS = CREATE_IDS + sum((
    1,      # back-end (local FS): its own file's create CPU
))


def test_a_clients_first_create_makes_its_file_inline():
    """The mount made the client's hash-directory chain on every back-end
    (one back-end mkdir CPU each, three more ids, when a create made it),
    so once the deployment has settled the first create makes no mkdir.
    It costs a warm create plus its own back-end create: no spare is made
    before a create asks for one, so an idle mount keeps no file."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    sim.run()
    before = sim._eid
    sim.run(until=dep.client_nodes[0].spawn(dep.clients[0].create("/f")))
    sim.run()
    assert FIRST_CREATE_IDS == 40
    assert sim._eid - before == FIRST_CREATE_IDS


#: The same ``create`` through a write-behind client. The ack is the op
#: logic and the append; no back-end or ZooKeeper call is on it.
ASYNC_CREATE_ACK_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # client: the append's ack CPU
    1,      # client: the drain process for the logged op
))

#: Its drain: the physical file first, then the name, published exactly
#: as the synchronous client publishes it.
ASYNC_CREATE_DRAIN_IDS = sum((
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


#: With the coherent cache on, the drain then primes it with the new path:
#: one watched ``get``, answered by the co-located leader's replica.
ASYNC_CREATE_PRIME_IDS = sum((
    2,      # client -> leader: get delivery, the call's reserved timeout id
    2,      # leader: the get's dispatch slot, its handler process
    1,      # leader: read CPU
    1,      # leader -> client: get response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
))


def _write_behind_create_ids(cache):
    """(ack, drain) ids of a warm write-behind ``create`` at the leader."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local",
                                awrite=AsyncParams.async_on(),
                                cache=CacheParams(enabled=cache))
    sim = dep.cluster.sim
    client, node = dep.clients[0], dep.client_nodes[0]
    sim.run(until=node.spawn(client.create("/warm")))
    sim.run()
    before = sim._eid
    sim.run(until=node.spawn(client.create("/f")))     # the ack
    acked = sim._eid
    sim.run()                                           # the drain
    return acked - before, sim._eid - acked


def test_a_write_behind_create_costs_its_ack_then_its_drain():
    assert (ASYNC_CREATE_ACK_IDS, ASYNC_CREATE_DRAIN_IDS) == (4, 36)
    assert _write_behind_create_ids(cache=False) == \
        (ASYNC_CREATE_ACK_IDS, ASYNC_CREATE_DRAIN_IDS)


def test_a_cached_write_behind_create_drains_then_primes():
    assert ASYNC_CREATE_PRIME_IDS == 8
    assert _write_behind_create_ids(cache=True) == \
        (ASYNC_CREATE_ACK_IDS, ASYNC_CREATE_DRAIN_IDS + ASYNC_CREATE_PRIME_IDS)


#: The same ``create`` through a client whose preferred server is a
#: co-located follower: the follower forwards it to the leader and holds
#: the reply until its own replica has applied the commit.
FORWARDED_CREATE_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # client: the next spare's process
    1,      # back-end (local FS): the next spare's create CPU
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
        ticks, monkeypatch):
    """The follower's apply is held back ``ticks`` extra ``log_delay``
    ticks. A polled hold took one id per tick (47, 48 and 52 here, before
    spares); a parked hold takes one, at the instant it parks."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    client, node = dep.clients[1], dep.client_nodes[1]
    follower = dep.ensemble.servers[1]
    assert follower.node is node and follower.role == "following"
    monkeypatch.setattr(ZKParams, "apply_cpu",
                        ZKParams.apply_cpu + ticks * ZKParams.log_delay)

    def run(gen):
        sim.run(until=node.spawn(gen))
        sim.run()

    run(client.create("/warm"))
    before = sim._eid
    run(client.create("/f"))
    assert FORWARDED_CREATE_IDS == 48
    assert sim._eid - before == FORWARDED_CREATE_IDS


#: A ``stat`` of a file through a client that neither created nor stat'ed
#: it, at either server: any server answers a read from its own replica, so
#: the co-located leader and follower cost alike.
STAT_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    2,      # client -> server: request delivery, the call's reserved timeout id
    2,      # server: the request's dispatch slot, its handler process
    1,      # server: read CPU
    1,      # server -> client: response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
    1,      # client: mapping CPU (which back-end holds the file)
    1,      # back-end (local FS): stat CPU
))

#: The same ``stat`` through the client that created the file: the FID it
#: remembers is stat'ed on the back-end by a child beside the znode read,
#: which names the same FID. The child is done before the reply is back.
HINTED_STAT_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # client: the back-end stat's child process
    1,      # child: mapping CPU (which back-end holds the file)
    1,      # back-end (local FS): stat CPU
    2,      # client -> server: request delivery, the call's reserved timeout id
    2,      # server: the request's dispatch slot, its handler process
    1,      # server: read CPU
    1,      # server -> client: response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
))

#: A ``mkdir`` through the client at the leader: a create with no back-end
#: call (a directory exists in ZooKeeper only).
MKDIR_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
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

#: The same ``mkdir`` through the client at a follower, which forwards it
#: and holds the reply until its own replica has applied the commit.
FORWARDED_MKDIR_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
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
    1,      # follower: the read-your-writes hold
    1,      # follower -> client: response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
))

#: An ``rmdir`` through the client at the leader: a ``get`` to learn that
#: the path is a directory, then the delete.
RMDIR_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    2,      # client -> leader: get delivery, the call's reserved timeout id
    2,      # leader: the get's dispatch slot, its handler process
    1,      # leader: read CPU
    1,      # leader -> client: get response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
    2,      # client -> leader: delete delivery, the call's reserved timeout id
    2,      # leader: the delete's dispatch slot, its handler process
    1,      # leader: write CPU
    2,      # leader -> followers: PROPOSE deliveries
    2,      # leader: logger kick, fsync
    2 * 4,  # each follower: PROPOSE slot, logger kick, log CPU, fsync
    2,      # followers -> leader: ACK deliveries
    2,      # leader: a dispatch slot per ACK
    2,      # leader: applier kick (the quorum ACK), apply CPU
    1,      # leader: the write handler's wait on its outcome fires
    2,      # leader -> followers: COMMIT deliveries
    1,      # leader -> client: delete response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
    2 * 3,  # each follower: COMMIT slot, applier kick, apply CPU
))

#: The same ``rmdir`` through the client at a follower: the ``get`` is
#: answered there, the delete is forwarded and its reply held.
FORWARDED_RMDIR_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    2,      # client -> follower: get delivery, the call's reserved timeout id
    2,      # follower: the get's dispatch slot, its handler process
    1,      # follower: read CPU
    1,      # follower -> client: get response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
    2,      # client -> follower: delete delivery, the call's reserved timeout id
    2,      # follower: the delete's dispatch slot, its handler process
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
    1,      # follower: the read-your-writes hold
    1,      # follower -> client: delete response delivery
    2,      # client: the call's waiter fires, then its any-of(timeout)
))

#: An ``unlink`` costs what an ``rmdir`` does, at either client, and
#: returns once the delete has committed: what it adds before its return
#: starts the reclaim, a process of its own that removes the physical file.
UNLINK_RETURN_IDS = sum((
    1,      # client: mapping CPU (which back-end holds the file)
    1,      # client: the reclaim process's start
))
UNLINK_RECLAIM_IDS = sum((
    1,      # back-end (local FS): unlink CPU
))
UNLINK_IDS = RMDIR_IDS + UNLINK_RETURN_IDS + UNLINK_RECLAIM_IDS
FORWARDED_UNLINK_IDS = (FORWARDED_RMDIR_IDS + UNLINK_RETURN_IDS
                        + UNLINK_RECLAIM_IDS)
#: The followers' COMMIT applies, the last row of ``RMDIR_IDS``: at the
#: leader they run after the client's reply, at a follower before it.
FOLLOWER_APPLY_IDS = 2 * 3


@pytest.mark.parametrize("role, op, path, ids, total", [
    ("leading", "stat", "/warm", HINTED_STAT_IDS, 13),
    ("leading", "mkdir", "/d", MKDIR_IDS, 37),
    ("leading", "unlink", "/warm", UNLINK_IDS, 48),
    ("leading", "rmdir", "/d", RMDIR_IDS, 45),
    ("following", "stat", "/warm", HINTED_STAT_IDS, 13),
    ("following", "mkdir", "/d", FORWARDED_MKDIR_IDS, 46),
    ("following", "unlink", "/warm", FORWARDED_UNLINK_IDS, 57),
    ("following", "rmdir", "/d", FORWARDED_RMDIR_IDS, 54),
])
def test_an_unloaded_op_costs_exactly_these_creation_ids(role, op, path, ids,
                                                          total):
    """Through the client whose preferred server is the co-located server
    in ``role``, after a warm-up create (and, for ``rmdir``, its mkdir).
    That client made ``/warm``, so its ``stat`` is a hinted one."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    at = 0 if role == "leading" else 1
    client, node = dep.clients[at], dep.client_nodes[at]
    server = dep.ensemble.servers[at]
    assert server.node is node and server.role == role

    def run(gen):
        sim.run(until=node.spawn(gen))
        sim.run()

    run(client.create("/warm"))
    if op == "rmdir":
        run(client.mkdir(path))
    before = sim._eid
    run(getattr(client, op)(path))
    assert ids == total
    assert sim._eid - before == ids


@pytest.mark.parametrize("role", ["leading", "following"])
def test_a_stat_through_a_client_that_did_not_create_the_file(role):
    """The third client, at the other follower, makes ``/warm``: the
    client in ``role`` has no hint, so Fig. 6's two steps run in turn."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    at = 0 if role == "leading" else 1
    client, node = dep.clients[at], dep.client_nodes[at]
    assert dep.ensemble.servers[at].role == role
    sim.run(until=dep.client_nodes[2].spawn(dep.clients[2].create("/warm")))
    sim.run()
    before = sim._eid
    sim.run(until=node.spawn(client.stat("/warm")))
    sim.run()
    assert STAT_IDS == 12
    assert sim._eid - before == STAT_IDS


#: A ``stat`` of a file whose write-behind create the drain still owes,
#: through the mount that created it, without the cache: the overlay
#: answers the lookup, and no back-end stat is made of a file not yet
#: made, hinted or not.
PENDING_STAT_IDS = sum((
    1,      # this test's driving process
    1,      # client: op logic CPU
    1,      # client: mapping CPU (which back-end will hold the file)
))


@pytest.mark.parametrize("hinted", [True, False])
def test_a_stat_of_an_undrained_create_starts_no_back_end_stat(
        hinted, monkeypatch):
    """The hint names a file the drain has not made: there is no stat to
    overlap with the lookup, so the hinted stat costs the unhinted one."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local",
                                awrite=AsyncParams.async_on())
    sim = dep.cluster.sim
    client, node = dep.clients[0], dep.client_nodes[0]
    for be in client.backends:          # hold every drained create back
        def create(ppath, mode, inner=be.create):
            yield sim.timeout(10.0)
            return (yield from inner(ppath, mode))
        monkeypatch.setattr(be, "create", create)
    sim.run(until=node.spawn(client.create("/f")))
    sim.run(until=sim.now + 1.0)        # the drain is in the held create
    if not hinted:
        client.files._fids.clear()
    owed = [ev.triggered for ev in client.files._creating.values()]
    assert ("/f" in client.files._fids) == hinted and owed == [False]
    before = sim._eid
    st = sim.run(until=node.spawn(client.stat("/f")))
    assert st.is_file and [
        ev.triggered for ev in client.files._creating.values()] == [False]
    assert PENDING_STAT_IDS == 3
    assert sim._eid - before == PENDING_STAT_IDS


@pytest.mark.parametrize("role, before_return, after_return", [
    ("leading", RMDIR_IDS - FOLLOWER_APPLY_IDS + UNLINK_RETURN_IDS,
     FOLLOWER_APPLY_IDS + UNLINK_RECLAIM_IDS),
    ("following", FORWARDED_RMDIR_IDS + UNLINK_RETURN_IDS,
     UNLINK_RECLAIM_IDS),
])
def test_a_synchronous_unlink_costs_its_return_then_its_reclaim(
        role, before_return, after_return):
    """The ids an ``unlink`` takes until it returns, then the rest: the
    back-end unlink is off the caller's path."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim
    at = 0 if role == "leading" else 1
    client, node = dep.clients[at], dep.client_nodes[at]
    assert dep.ensemble.servers[at].role == role
    sim.run(until=node.spawn(client.create("/warm")))
    sim.run()
    before = sim._eid
    sim.run(until=node.spawn(client.unlink("/warm")))     # the return
    returned = sim._eid
    sim.run()                                           # the reclaim
    assert (returned - before, sim._eid - returned) == \
        (before_return, after_return)
