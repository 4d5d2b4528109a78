"""A forwarded write's reply is released when its follower applies it.

A follower holds a forwarded write's reply until its own replica has
applied the write's zxid or it stops following, and a crash drops it
(``ZKServer._hold``, docs/MODEL.md §12, cut 5). ZooKeeper answers on
apply, with no tick, and so does this model: the hold is released at the
instant the applier (or a re-sync's rebuild) raises ``commit_index`` past
the zxid, or the instant an election takes the server out of FOLLOWING.

The oracle is :func:`violations`. Each server here notes every change of
its ``commit_index`` and role, every crash, and each hold when it parks
and when it returns. From the note at which a hold parked, the oracle
finds the first at which the write is applied or the server is no longer
following: the hold must return at that note's instant, and never if the
server crashed first. So a release that is early (before the apply),
late (a tick after it) or missing (a release site left out) fails here.

The schedules collide: the leader runs on eight cores and its followers'
writes are issued in one instant, so their proposals share one fsync,
their commits one applier batch, and the leader's replies reach three or
four followers in one instant. Each follower runs on one core, which a
hog keeps busy for a chosen time, so commits are held back by different
amounts and applied in an order of their own. Elections and crashes land
mid-hold, with and without failure detection; the re-sync that follows
an election lowers ``commit_index`` and raises it again inside
``follow()``. A replica that applies one zxid twice raises
``AssertionError: inconsistent replica`` out of the run.

``scripts/hold_replay_sweep.py`` runs the same oracle over thousands of
seeded schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.params import ZKParams
from repro.sim import Cluster, RpcAgent, RpcTimeout
from repro.zk.election import FOLLOWING
from repro.zk.errors import ConnectionLossError, NotLeaderError
from repro.zk.protocol import WriteRequest
from repro.zk.server import ZKServer

LOG_DELAY = ZKParams().log_delay
N_SERVERS = 5                   # the leader (sid 0) and four followers
EIGHTH = LOG_DELAY / 8          # the unit of a hog's and a fault's time
STEP = 97e-6                    # the unit of a request's issue time
CALL_TIMEOUT = 0.05
CRASH = "crash"


class Probed(ZKServer):
    """A server that notes ``(now, commit_index, role)`` at every change
    of either, ``(now, CRASH)`` at a crash, and each hold as
    ``[zxid, note index when parked, parked at, returned at]``."""

    _ci = 0
    _role = None

    def __init__(self, *args, **kwargs):
        self.timeline = []
        self.holds = []
        super().__init__(*args, **kwargs)

    def _note(self):
        self.timeline.append((self.sim.now, self._ci, self._role))

    @property
    def commit_index(self):
        return self._ci

    @commit_index.setter
    def commit_index(self, value):
        self._ci = value
        self._note()

    @property
    def role(self):
        return self._role

    @role.setter
    def role(self, value):
        self._role = value
        self._note()

    def _on_crash(self):
        self.timeline.append((self.sim.now, CRASH))
        super()._on_crash()

    def _hold(self, zxid):
        hold = [zxid, len(self.timeline), self.sim.now, None]
        self.holds.append(hold)
        yield from super()._hold(zxid)
        hold[3] = self.sim.now


def expected_return(server, zxid, parked_note, parked_at):
    """When the oracle says a hold parked at ``parked_note`` returns:
    the instant of the first note from there on at which ``zxid`` is
    applied or the server is not following, or ``None`` if a crash (or
    the end of the run) comes first."""
    state = server.timeline[parked_note - 1] if parked_note else None
    if state is not None and len(state) == 3 and \
            (state[1] >= zxid or state[2] != FOLLOWING):
        return parked_at
    for note in server.timeline[parked_note:]:
        if note[1] == CRASH:
            return None
        if note[1] >= zxid or note[2] != FOLLOWING:
            return note[0]
    return None


def violations(servers):
    """Every hold that returned early, late or not at all, against the
    oracle, as ``(sid, zxid, kind, returned at, expected at)``; ``kind``
    is ``"early"`` when it returned before its follower applied the
    write while still following."""
    found = []
    for server in servers:
        for zxid, note, parked_at, returned in server.holds:
            want = expected_return(server, zxid, note, parked_at)
            if returned == want:
                continue
            early = returned is not None and (want is None or returned < want)
            found.append((server.sid, zxid, "early" if early else "late",
                          returned, want))
    return found


def _ensemble(cluster, params):
    peers = {sid: f"zk{sid}" for sid in range(N_SERVERS)}
    servers = []
    for sid in range(N_SERVERS):
        node = cluster.add_node(f"z{sid}", cores=8 if sid == 0 else 1)
        servers.append(Probed(node, sid, peers, params=params,
                              static_leader=0))
    for server in servers:
        server.boot_static()
    return servers


def replay(schedule, params=ZKParams()):
    """Run one schedule. Return every call's outcome and every fault as
    ``(now, what, result)`` in the order they happened, and the servers
    (for :func:`violations`)."""
    requests, hogs, faults = schedule
    cluster = Cluster(seed=0)
    sim = cluster.sim
    log = []
    servers = _ensemble(cluster, params)
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
    return log, servers


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
def test_holds_return_when_their_follower_applies_the_write(schedule, detect):
    _, servers = replay(schedule, ZKParams(failure_detection=detect))
    assert violations(servers) == []


#: One forwarded create from each follower in the same instant: the four
#: are sequenced together and the last three replied to in one instant.
BURST = [(0, sid) for sid in range(1, N_SERVERS)]


def _check(schedule, params=ZKParams()):
    log, servers = replay(schedule, params)
    assert violations(servers) == []
    return log, servers


def _held(servers, sid):
    """``(parked at, returned at)`` of each of ``zk{sid}``'s holds."""
    return [(parked, returned)
            for _, _, parked, returned in servers[sid].holds]


def _applied(servers, sid, path):
    """The instant ``zk{sid}``'s replica applied the create of ``path``
    (each replica stamps ``ctime`` with its own apply instant)."""
    return servers[sid].store.exists(path).ctime


def test_holds_return_in_the_order_their_followers_apply():
    """zk2, zk3 and zk4 park in one instant; hogs make them apply the
    commit in the order zk4, zk3, zk2, and each returns as it applies."""
    _, servers = _check((BURST, [(2, 56, 4), (3, 56, 2)], []))
    returned = [_held(servers, sid)[0][1] for sid in (4, 3, 2)]
    assert returned == sorted(set(returned))
    for sid in (2, 3, 4):
        assert _held(servers, sid)[0][1] == \
            _applied(servers, sid, f"/n{sid - 1:02d}")


def test_a_commit_held_back_returns_at_its_apply():
    _, servers = _check((BURST, [(4, 56, 30)], []))
    (late,), (shared,) = _held(servers, 4), _held(servers, 3)
    assert late[1] == _applied(servers, 4, "/n03")
    assert late[1] - shared[1] > 3.5 * LOG_DELAY


def test_an_election_releases_a_hold_at_once():
    """zk2's commit is held back by a hog; the election frees its hold at
    the election's instant, long before the re-sync applies the write,
    and the client gets its result."""
    log, servers = _check((BURST, [(2, 56, 5)], [("elect", 2, 58, 0)]))
    ((parked, returned),) = _held(servers, 2)
    assert parked < returned == 58 * EIGHTH < _applied(servers, 2, "/n01")
    assert [got for _, what, got in log if what == "c n01"] == ["/n01"]


def test_an_election_releases_only_its_own_servers_holds():
    """zk1's and zk2's holds park in one instant. The election on zk1
    frees zk1's there; zk2's returns when zk2 applies its write."""
    creates = [(0, 0)] * 5 + [(0, 1), (0, 2)]
    _, servers = _check((creates, [], [("elect", 1, 66, 0)]))
    ((parked1, first),), ((parked2, second),) = \
        _held(servers, 1), _held(servers, 2)
    assert parked1 == parked2 < first == 66 * EIGHTH < second
    assert second == _applied(servers, 2, "/n06")


def test_a_hold_the_resync_applies_is_released_by_follow():
    """An election on zk3 lands while its forwarded write is at the
    leader. zk3 is a follower again, its sync still buffered, when the
    leader's reply comes, so the hold parks; only ``follow()``'s rebuild
    applies the write, and releases the hold there."""
    _, servers = _check((BURST, [], [("elect", 3, 50, 0)]))
    ((parked, returned),) = _held(servers, 3)
    assert 50 * EIGHTH < parked < returned == _applied(servers, 3, "/n02")
    assert returned < _held(servers, 2)[0][1]


def test_a_crash_mid_hold_drops_it():
    log, servers = _check((BURST, [(3, 56, 30)], [("crash", 3, 60, 20)]))
    ((parked, returned),) = _held(servers, 3)
    assert returned is None
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
