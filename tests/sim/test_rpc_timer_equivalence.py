"""A reserved call timeout fires where the scheduled ``Timeout`` did.

A timed ``RpcAgent.call`` used to schedule a ``Timeout`` and wait on
``AnyOf(waiter, timeout)``. The timeout is now a reservation: the call
takes the creation id the ``Timeout`` took and goes on its agent's timer
heap, and only the earliest deadline has an expiry event, at that call's
own ``(deadline, id)`` (docs/MODEL.md §12, cut 6). The old call is kept
here, verbatim, as :class:`RefAgent`, and schedules built to collide are
replayed on agents of each kind: every call must return at the same
simulated instant, after the same number of creation ids and in the same
place of the log, with the same outcome, and the run must end with the
same ``sim._eid``.

The collisions: every message takes 5/4 of a tick, every issue time,
hold and timeout is a whole number of quarter ticks, and a tick is a
power of two, so replies, expiries, deliveries and crashes land in the
same instants exactly — a reply before, at and after its own expiry, and
replies and expiries of several calls in one instant, in either id
order. The server's relay handler issues nested calls with two timeouts
(as a ZooKeeper server does: 2 s for an election, 5 s for ``fwd_write``)
and under the caller's deadline. Crashes hit a client node (its callers
are not node processes, so they outlive the crash), the server (its
relay callers die with it) and the relay's target.

Wrong variants that fail here: arming every call's expiry when it is
issued (the bound test), skipping the relay hop (the waiter wakes the
caller directly: one id fewer per reply), and deciding an expiry by
membership of ``_pending`` (a crash clears it, and the caller that
outlives the crash then never times out).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cluster, RpcAgent, RpcTimeout
from repro.sim.core import AnyOf, Event, _PENDING
from repro.sim.rpc import (DEFAULT_REQ_SIZE, DEFAULT_RESP_SIZE, _UNSET,
                           _Request)

TICK = 2.0 ** -16
Q = TICK / 4                    # the unit of every time in a schedule
SIZE = 64                       # every message; SIZE / bandwidth == Q
RELAY_TIMEOUTS = (8 * Q, 20 * Q)     # "2 s" and "5 s" on the server's agent


class RefAgent(RpcAgent):
    """The timed call this repo ran until the timer became a reservation."""

    def call(self, dst, method, args=None, size=DEFAULT_REQ_SIZE,
             resp_size=DEFAULT_RESP_SIZE, timeout=None, deadline=_UNSET):
        if deadline is _UNSET:
            active = self.sim._active
            deadline = active.deadline if active is not None else None
        if deadline is not None:
            remaining = deadline - self.sim.now
            if remaining <= 0.0:
                raise RpcTimeout(dst, method)
            timeout = (remaining if timeout is None
                       else min(timeout, remaining))
        self._next_id = rpc_id = self._next_id + 1
        waiter = Event.__new__(Event)   # inlined Event.__init__ (hot path)
        waiter.sim = self.sim
        waiter.callbacks = []
        waiter._value = _PENDING
        waiter._ok = True
        waiter._used = False
        self._pending[rpc_id] = waiter
        req = _Request(rpc_id, self.endpoint, method, args, resp_size,
                       deadline)
        self.network.send(self.endpoint, dst, req, size)
        try:
            if timeout is None:
                resp = yield waiter
            else:
                expiry = self.sim.timeout(timeout)
                yield AnyOf(self.sim, (waiter, expiry))
                if not waiter.triggered or waiter.value is None:
                    if not waiter.triggered:
                        waiter._ok = True  # detach: response may still arrive
                        waiter._value = None
                    raise RpcTimeout(dst, method)
                resp = waiter.value
        finally:
            # Success pops at dispatch; this covers timeout and a
            # caller interrupted mid-wait so the late response is
            # discarded instead of leaking a waiter forever.
            self._pending.pop(rpc_id, None)
        if resp.ok:
            return resp.value
        raise resp.value


class _Probe:
    """Notes when, after how many ids and with what each call returned."""

    notes: list

    def call(self, dst, method, args, *rest, **kw):
        try:
            got = yield from super().call(dst, method, args, *rest, **kw)
        except Exception as exc:
            self._note(dst, args, type(exc).__name__)
            raise
        self._note(dst, args, got)
        return got

    def _note(self, dst, args, outcome):
        sim = self.sim
        self.notes.append((sim.now, sim._eid,
                           f"{self.endpoint}>{dst} {args[0]}", outcome))


class Reserved(_Probe, RpcAgent):
    pass


class Scheduled(_Probe, RefAgent):
    pass


def replay(agent_cls, schedule):
    """Run one schedule; return the log and the final ``sim._eid``."""
    calls, fault = schedule
    cluster = Cluster(seed=0, latency=TICK, bandwidth=SIZE * 4 / TICK)
    sim = cluster.sim
    log = []

    def agent(node, endpoint):
        a = agent_cls(node, endpoint)
        a.notes = log
        return a

    srv = cluster.add_node("srv", cores=1)
    s = agent(srv, "s")
    echo_node = cluster.add_node("e")
    echo = agent(echo_node, "e")
    client_nodes = [cluster.add_node(f"c{i}") for i in range(2)]
    clients = [agent(node, f"c{i}") for i, node in enumerate(client_nodes)]

    def h_work(src, args):
        log.append((sim.now, sim._eid, f"s.work {args[0]}", None))
        yield from srv.cpu_work(args[1] * Q)    # one core: these queue
        return args[0]

    def h_relay(src, args):
        # Under the caller's deadline, if it gave one: a capped timeout.
        got = yield from s.call("e", "echo", args, size=SIZE, resp_size=SIZE,
                                timeout=RELAY_TIMEOUTS[args[1] % 2])
        return got

    def h_echo(src, args):
        yield sim.timeout(args[1] * Q)
        return args[0]

    s.register("work", h_work)
    s.register("relay", h_relay)
    echo.register("echo", h_echo)

    def one_call(k, at, who, method, hold, timeout, deadline):
        yield sim.timeout(at * Q)
        try:
            yield from clients[who].call(
                "s", method, (f"n{k}", hold), size=SIZE, resp_size=SIZE,
                timeout=None if timeout is None else timeout * Q,
                deadline=None if deadline is None else (at + deadline) * Q)
        except RpcTimeout:
            pass

    for k, call in enumerate(calls):
        sim.process(one_call(k, *call))

    def crasher(node, at, hops, down):
        yield sim.timeout(at * Q)
        for _ in range(hops):
            yield sim.timeout(0)
        node.crash()
        log.append((sim.now, sim._eid, f"crash {node.name}", None))
        yield sim.timeout(down * Q)
        node.recover()
        log.append((sim.now, sim._eid, f"recover {node.name}", None))

    if fault is not None:
        where, *when = fault
        target = {"c": client_nodes[0], "s": srv, "e": echo_node}[where]
        sim.process(crasher(target, *when))
    sim.run()
    return log, sim._eid


def check(schedule):
    got = replay(Reserved, schedule)
    assert got == replay(Scheduled, schedule)
    return got[0]


calls = st.lists(st.tuples(
    st.sampled_from((0, 0, 0, 1, 4, 10)),                # issue time
    st.integers(0, 1),                                    # which client
    st.sampled_from(("work", "work", "relay")),
    st.integers(0, 6),                                    # hold
    st.one_of(st.none(), st.integers(1, 40)),             # timeout
    st.one_of(st.none(), st.none(), st.integers(0, 30))),  # deadline
    min_size=1, max_size=8)
faults = st.one_of(st.none(), st.tuples(
    st.sampled_from("cse"), st.integers(1, 40), st.integers(0, 3),
    st.integers(1, 40)))


@settings(max_examples=200, deadline=None)
@given(st.tuples(calls, faults))
def test_reserved_timeouts_fire_where_the_scheduled_ones_did(schedule):
    check(schedule)


def _outcomes(log):
    """Each client call's outcome, by tag."""
    return {what.split()[1]: got for _, _, what, got in log
            if ">s " in what}


def test_a_reply_before_at_and_after_its_expiry_instant():
    """A "work" call holding the core 2 quarters has its reply 12 quarters
    after the issue. The reply's id is younger than the reservation, so
    at 12 the expiry fires first and the reply, later in that instant,
    still wins."""
    for timeout, outcome in ((11, "RpcTimeout"), (12, "n0"), (13, "n0")):
        log = check(([(0, 0, "work", 2, timeout, None)], None))
        assert _outcomes(log) == {"n0": outcome}


def test_a_reply_in_the_instant_of_other_calls_expiries_in_both_id_orders():
    """At quarter 12 the reply to n0 (sent at 7) lands between n2's
    expiry (reserved at 0) and n1's (reserved at 8), both on n0's agent,
    so the second expiry is armed at the current instant."""
    log = check(([(0, 0, "work", 2, None, None),
                  (8, 0, "work", 0, 4, None),
                  (0, 0, "work", 6, 12, None)], None))
    assert [(what, got) for now, _, what, got in log if now == 12 * Q] == [
        ("c0>s n2", "RpcTimeout"), ("c0>s n0", "n0"),
        ("c0>s n1", "RpcTimeout")]


def test_two_calls_issued_in_one_instant_with_one_timeout():
    """Both expire at quarter 16, n0's first; n0's reply lands later in
    that instant, n1's (one quarter more on the core) a quarter after."""
    log = check(([(4, 0, "work", 2, 12, None), (4, 0, "work", 1, 12, None)],
                 None))
    assert [(what, got) for now, _, what, got in log if now == 16 * Q] == [
        ("c0>s n0", "n0"), ("c0>s n1", "RpcTimeout")]


def test_two_timeouts_on_one_agent_and_a_capped_one():
    """The server relays with an 8-quarter timeout (even hold) and a
    20-quarter one (odd). n3's relay, issued at 6, runs under its
    caller's deadline, 19, which caps the 20 quarters to 13."""
    log = check(([(0, 0, "relay", 12, 40, None), (0, 1, "relay", 12, 40, None),
                  (1, 0, "relay", 3, 40, None), (1, 1, "relay", 31, 40, 18)],
                 None))
    relays = {what.split()[1]: (now / Q, got) for now, _, what, got in log
              if what.startswith("s>e")}
    assert relays == {"n0": (13, "RpcTimeout"), "n1": (13, "RpcTimeout"),
                      "n2": (19, "n2"), "n3": (19, "RpcTimeout")}


def test_a_crash_of_the_caller_and_of_the_callee_mid_call():
    for fault in (("c", 4, 1, 8), ("s", 10, 0, 40), ("e", 8, 2, 4)):
        log = check(([(0, 0, "work", 6, 30, None), (0, 0, "relay", 4, 36, None),
                      (2, 1, "relay", 0, 36, None)], fault))
        assert "RpcTimeout" in _outcomes(log).values()


def test_sequential_timed_calls_leave_one_expiry_scheduled():
    """N calls, one after another, each answered long before its 5 s
    timeout: the scheduled ``Timeout`` of every one outlived it."""
    cluster = Cluster(seed=0)
    sim = cluster.sim
    server = RpcAgent(cluster.add_node("srv"), "s")
    client = RpcAgent(cluster.add_node("cli"), "c")

    def echo(src, args):
        return args
        yield

    server.register("echo", echo)

    def caller():
        for k in range(20):
            assert (yield from client.call("s", "echo", k, timeout=5.0)) == k

    sim.run(until=sim.process(caller()))
    assert sim.now < 1.0
    assert len(sim._heap) + len(sim._staged) <= 1
