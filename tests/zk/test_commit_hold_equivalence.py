"""A parked read-your-writes hold is released where the poll loop was.

A follower holds a forwarded write's reply until its own replica has
applied the write's zxid or it stops following. That hold used to be a
poll: one ``log_delay`` timeout per tick until ``commit_index``
caught up. It is now parked (``ZKServer._hold``) under the creation id
its first poll would have taken, and fired at the first tick of its own
grid after its condition turns true (docs/MODEL.md §12, cut 5).

The poll loops are kept here, verbatim, as :class:`RefZKServer`, and
schedules built to collide are replayed on an ensemble of each kind:
every hold must return at the same simulated instant, in the same place
of the same-instant order, with the same result. Creation ids are *not*
compared: removing the polls' ids is the point.

The collisions: the leader runs on eight cores and its followers' writes
are issued in one instant, so their proposals share one fsync, their
commits one applier batch, and the leader's replies reach three or four
followers in one instant; those holds share a grid. Each follower runs
on one core, which a hog keeps busy for a chosen time, so commits are
held back by different amounts and applied in an order of their own.
Elections and crashes land mid-hold, with and without failure
detection; the re-sync that follows an election lowers ``commit_index``
and raises it again inside ``follow()``. A replica that applies one zxid
twice raises ``AssertionError: inconsistent replica`` out of the run.

Wrong variants that fail here: reserving the id when the hold is
released instead of when it parks (holds released out of registration
order return in that order at their shared tick), recomputing the grid
as ``start + k * log_delay`` instead of accumulating it (the instants
move in the last bits), and leaving out the release in
``start_election`` or ``_rebuild_from_disk``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.params import ZKParams
from repro.sim import Cluster, RpcAgent, RpcTimeout
from repro.zk.election import FOLLOWING, LEADING
from repro.zk.errors import ConnectionLossError, NotLeaderError
from repro.zk.protocol import WriteRequest
from repro.zk.server import ZKServer

LOG_DELAY = ZKParams().log_delay
N_SERVERS = 5                   # the leader (sid 0) and four followers
EIGHTH = LOG_DELAY / 8          # the unit of a hog's and a fault's time
#: The unit of a request's issue time. No small multiple of it is one of
#: ``log_delay``, so two requests with the same path through the ensemble
#: never park on each other's grid, a coincidence in which a parked hold
#: and the polls order differently (docs/MODEL.md §12, cut 5's caveat).
STEP = 97e-6
CALL_TIMEOUT = 0.05


class RefZKServer(ZKServer):
    """The poll loop this repo ran before holds were parked."""

    def _route_write(self, req):
        if self.role == LEADING:
            result = yield from self._process_write(req)
            return result
        if self.role == FOLLOWING and self.leader_sid is not None:
            yield from self.node.cpu_work(self.params.forward_cpu)
            lead = self.leader_sid  # may have changed while queued
            if self.role != FOLLOWING or lead is None:
                raise ConnectionLossError(
                    msg=f"zk{self.sid} lost its leader while forwarding")
            zxid, result = yield from self.agent.call(
                self.peers[lead], "fwd_write", req,
                size=self._req_size(req), timeout=5.0)
            while self.commit_index < zxid and self.role == FOLLOWING:
                yield self.sim.timeout(self.params.log_delay)
            return result
        raise ConnectionLossError(msg=f"zk{self.sid} has no leader")


class _Probe:
    """Notes when, in what order and with what a hold returned."""

    notes: list

    def _route_write(self, req):
        result = yield from super()._route_write(req)
        self.notes.append((self.sim.now, f"zk{self.sid} {req.path}", result))
        return result


class Parked(_Probe, ZKServer):
    pass


class Polled(_Probe, RefZKServer):
    pass


def _ensemble(cls, cluster, log, params):
    peers = {sid: f"zk{sid}" for sid in range(N_SERVERS)}
    servers = []
    for sid in range(N_SERVERS):
        node = cluster.add_node(f"z{sid}", cores=8 if sid == 0 else 1)
        server = cls(node, sid, peers, params=params, static_leader=0)
        server.notes = log
        servers.append(server)
    for server in servers:
        server.boot_static()
    return servers


def replay(cls, schedule, params=ZKParams()):
    """Run one schedule; return every hold's and every call's outcome as
    ``(now, what, result)`` in the order they happened."""
    requests, hogs, faults = schedule
    cluster = Cluster(seed=0)
    sim = cluster.sim
    log = []
    servers = _ensemble(cls, cluster, log, params)
    client_node = cluster.add_node("c")
    client = RpcAgent(client_node, "c")

    def request(at, sid, tag):
        yield sim.timeout(at * STEP)
        try:
            got = yield from client.call(
                f"zk{sid}", "write", WriteRequest(op="create", path=f"/{tag}"),
                timeout=CALL_TIMEOUT)
        except RpcTimeout:
            got = "timeout"
        except (ConnectionLossError, NotLeaderError) as exc:
            got = type(exc).__name__
        log.append((sim.now, f"c {tag}", got))

    def hog(sid, at, length):
        yield sim.timeout(at * EIGHTH)
        yield from servers[sid].node.cpu_work(length * EIGHTH)

    def fault(kind, sid, at, down):
        yield sim.timeout(at * EIGHTH)
        server = servers[sid]
        log.append((sim.now, f"{kind} zk{sid}", server.commit_index))
        if kind == "elect":
            server.start_election()
            return
        server.node.crash()
        yield sim.timeout(down * LOG_DELAY)
        server.node.recover()

    for k, (at, sid) in enumerate(requests):
        client_node.spawn(request(at, sid, f"n{k:02d}"))
    for sid, at, ticks in hogs:
        client_node.spawn(hog(sid, at, ticks))
    for kind, sid, at, down in faults:
        client_node.spawn(fault(kind, sid, at, down))
    sim.run(until=1.0)
    return log


FOLLOWERS = st.integers(1, N_SERVERS - 1)
requests = st.lists(
    st.tuples(st.sampled_from((0, 0, 0, 1, 3, 11)),      # issue step
              st.integers(0, N_SERVERS - 1)),             # at which server
    min_size=1, max_size=10)
hogs = st.lists(st.tuples(FOLLOWERS, st.integers(0, 64), st.integers(1, 96)),
                max_size=4)
faults = st.lists(st.tuples(st.sampled_from(("elect", "crash")), FOLLOWERS,
                            st.integers(8, 120), st.integers(1, 40)),
                  max_size=2)


@settings(max_examples=100, deadline=None)
@given(st.tuples(requests, hogs, faults), st.booleans())
def test_parked_holds_return_where_the_polls_did(schedule, detect):
    params = ZKParams(failure_detection=detect)
    assert replay(Parked, schedule, params) == \
        replay(Polled, schedule, params)


#: One forwarded create from each follower in the same instant: the four
#: are sequenced together and the last three replied to in one instant.
BURST = [(0, sid) for sid in range(1, N_SERVERS)]


def _check(schedule, params=ZKParams()):
    log = replay(Parked, schedule, params)
    assert log == replay(Polled, schedule, params)
    return log


def _returned(log, sid):
    """When each of ``zk{sid}``'s holds returned."""
    return [now for now, what, _ in log if what.startswith(f"zk{sid} ")]


def test_holds_that_share_a_tick_return_in_the_order_they_parked():
    """zk2, zk3 and zk4 park in that order; hogs make them apply the
    commit in the order zk4, zk3, zk2, all before their shared tick."""
    log = _check((BURST, [(2, 56, 4), (3, 56, 2)], []))
    tick = _returned(log, 2)
    assert tick == _returned(log, 3) == _returned(log, 4)
    assert [what for now, what, _ in log if now == tick[0]] == \
        ["zk2 /n01", "zk3 /n02", "zk4 /n03"]


def test_a_commit_held_back_for_ticks_returns_on_its_own_grid():
    log = _check((BURST, [(4, 56, 30)], []))
    (late,), (shared,) = _returned(log, 4), _returned(log, 3)
    assert late - shared > 3.9 * LOG_DELAY


def test_an_election_just_before_a_tick_lets_the_write_go_at_that_tick():
    """zk2 is still electing at its next tick, so leaving FOLLOWING alone
    lets the hold pass there, long before the re-sync applies its zxid."""
    log = _check((BURST, [(2, 56, 8)], [("elect", 2, 64, 0)]))
    assert _returned(log, 2) == _returned(log, 3)


def test_an_election_mid_hold_releases_it_and_the_resync_parks_it_again():
    """The election frees the hold; the re-sync makes zk2 a follower
    again before its tick, so it parks again there. The apply batch it
    began before choosing a leader is dropped, and ``follow()``'s rebuild
    applies the commit and releases it."""
    log = _check((BURST, [(2, 56, 5)], [("elect", 2, 58, 0)]))
    (held,), (shared,) = _returned(log, 2), _returned(log, 3)
    assert held - shared > 0.9 * LOG_DELAY


def test_a_hold_the_resync_applies_is_released_by_follow():
    """zk2's core is busy through its own log write, so the commit is
    not applicable there when the reply comes. After the election only
    ``follow()`` applies it."""
    log = _check((BURST, [(2, 20, 40)], [("elect", 2, 58, 0)]))
    (held,), (shared,) = _returned(log, 2), _returned(log, 3)
    assert held - shared > 0.9 * LOG_DELAY


def test_a_hold_parked_again_keeps_its_place_on_its_grid():
    """zk1's and zk2's holds park in one instant. An election frees
    zk1's, which parks again at its next tick; zk2's stays parked. Both
    return at the same later tick, zk1's first, as the polls did."""
    creates = [(0, 0)] * 5 + [(0, 1), (0, 2)]
    log = _check((creates, [], [("elect", 1, 66, 0)]))
    (first,), (second,) = _returned(log, 1), _returned(log, 2)
    assert first == second
    assert [what for now, what, _ in log if now == first] == \
        ["zk1 /n05", "zk2 /n06"]


def test_a_crash_mid_hold_drops_it():
    log = _check((BURST, [(3, 56, 30)], [("crash", 3, 60, 20)]))
    assert _returned(log, 3) == []
    assert [got for _, what, got in log if what == "c n02"] == ["timeout"]


def test_a_resync_drops_the_fsync_batch_it_overtakes():
    """zk1 re-elects while its fsync of zxid 1 is in flight and installs
    the leader's log, zxid 1 included, before the fsync ends. The stale
    batch appends and acks nothing; before, it logged zxid 1 a second
    time and the applier applied it twice."""
    _check(([(0, 0)], [], [("elect", 1, 24, 0)]))


def test_a_resync_drops_the_apply_batch_it_overtakes():
    """zk4's applier waits for its hogged core with a batch computed
    against its old tree when the re-sync rebuilds it. The stale batch is
    dropped and the applicable run recomputed; before, it applied its
    txns a second time, to the rebuilt tree."""
    _check(([(0, 0), (0, 4)],
            [(2, 54, 93), (1, 28, 57), (4, 29, 45)], [("elect", 4, 45, 2)]),
           ZKParams(failure_detection=True))
