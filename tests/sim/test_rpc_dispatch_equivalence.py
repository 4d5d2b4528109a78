"""The callback-chain dispatcher takes the lane slots the dispatcher process did.

``RpcAgent`` used to run a dispatcher *process* blocked on an inbox
``Store``; it is now a callback chain (``_on_delivery`` / ``_dispatch``).
The old mechanism is kept here, verbatim, as :class:`RefAgent`, and
hypothesis-generated schedules are replayed on both: every handler entry,
fast-cast call and call completion must happen at the same simulated
instant *with the same creation-id counter* — i.e. in the same place of the
same-instant order, with the same number of ids consumed before it.

The schedules are built to collide: every message is the same size over
links whose delay is a power of two, and every send time is a multiple of
the same tick, so bursts from several senders, responses coming back to
the server, and a neighbour endpoint's zero-delay lane work all land in
the same instant exactly.

The test fails against the obvious wrong variant — give a message its lane
slot at *delivery* even while another slot is in flight (drop the
``_slot is not None`` branch of ``_on_delivery``): creation ids are then
taken before the handler in flight has spawned, and the first same-instant
burst diverges. It fails the same way against dispatching at delivery time
with no slot at all (docs/MODEL.md §12, "the measured dead end").
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cluster, RpcAgent, RpcTimeout, Store
from repro.sim.core import _PENDING, Interrupt
from repro.sim.rpc import _Cast, _Request, _Response

TICK = 2.0 ** -16
SIZE = 64                       # every message; SIZE / bandwidth == TICK / 4
CALL_TIMEOUT = 64 * TICK


class RefAgent(RpcAgent):
    """The dispatcher this repo ran until PR 19, kept as the reference:
    a process looping on ``inbox.get()``, with responses short-cut past it
    when the inbox is empty and its get is armed."""

    def _restart(self):
        # The inbox the network kept per endpoint: emptied by a crash and
        # unreachable while the node is down, so a fresh one per start.
        self.inbox = Store(self.sim)
        self._dispatcher = self.node.spawn(self._dispatch_loop(),
                                           f"{self.endpoint}.dispatch")

    def _on_delivery(self, msg):
        if not self._inbox_hook(msg):
            self.inbox.put(msg)

    def _fail_pending(self):
        self._pending.clear()
        # What Network.set_down did to a down endpoint's inbox.
        self.inbox.items.clear()
        for getter in self.inbox._getters:
            if getter._value is _PENDING:
                getter._ok, getter._value = True, None
        self.inbox._getters.clear()

    def _dispatch_loop(self):
        inbox_get = self.inbox.get
        pending = self._pending
        node_spawn = self.node.spawn
        while True:
            try:
                msg = yield inbox_get()
            except Interrupt:
                return
            if msg is None:  # cancelled get during teardown
                return
            payload = msg.payload
            cls = payload.__class__
            if cls is _Response:
                waiter = pending.pop(payload.rpc_id, None)
                if waiter is not None and waiter._value is _PENDING:
                    waiter.succeed(payload)
            elif cls is _Request:
                proc = node_spawn(self._serve(payload),
                                  self._spawn_name(payload.method))
                proc.deadline = payload.deadline
            elif cls is _Cast:
                fast = self.fast_handlers.get(payload.method)
                if fast is not None:
                    fast(payload.src, payload.args)
                    continue
                handler = self.handlers.get(payload.method)
                if handler is not None:
                    node_spawn(self._serve_cast(handler, payload),
                               self._spawn_name(payload.method))

    def _inbox_hook(self, msg) -> bool:
        if msg.payload.__class__ is not _Response:
            return False
        inbox = self.inbox
        if inbox.items:
            return False
        getters = inbox._getters
        if not getters or getters[0]._value is not _PENDING:
            return False
        payload = msg.payload
        waiter = self._pending.pop(payload.rpc_id, None)
        if waiter is not None and waiter._value is _PENDING:
            waiter.succeed(payload)
        return True


#: What a client can do at one step, and to which endpoint.
ACTIONS = (("s", "req"), ("s", "relay"), ("s", "fc"), ("s", "gc"),
           ("t", "poke"))

steps = st.lists(st.tuples(st.sampled_from((0, 0, 0, 1, 2, 5)),
                           st.sampled_from(ACTIONS)),
                 min_size=1, max_size=12)
schedules = st.tuples(
    st.lists(steps, min_size=1, max_size=3),                  # per client
    # Crash and recovery, in quarter ticks (where deliveries land) plus a
    # few zero-delay hops, so that they fall *between* a delivery and its
    # slot, or between a restart and the slot it takes.
    st.one_of(st.none(), st.tuples(st.integers(4, 160), st.integers(0, 3),
                                   st.integers(1, 48), st.integers(0, 3))))


def replay(agent_cls, schedule):
    """Run one schedule; return what happened as ``(now, ids, what)``."""
    clients, fault = schedule
    cluster = Cluster(seed=0, latency=TICK, bandwidth=SIZE * 4 / TICK)
    cluster.network.loopback_latency = TICK / 2
    cluster.network.loopback_bandwidth = SIZE * 8 / TICK
    sim = cluster.sim
    log = []
    # The old dispatcher process took one creation id to be told its node
    # had crashed. That wake-up ordered nothing (its dispatch only ended
    # the generator) and the callback chain has no process to wake, so
    # the comparison discounts those ids.
    discount = [0]

    def note(what):
        log.append((sim.now, sim._eid - discount[0], what))

    srv = cluster.add_node("srv", cores=1)
    s, t = agent_cls(srv, "s"), agent_cls(srv, "t")
    echo_node = cluster.add_node("e")
    echo = agent_cls(echo_node, "e")

    def h_req(src, args):
        note(f"s.req {args}")
        yield from srv.cpu_work(TICK)            # one core: these queue
        return args

    def h_relay(src, args):
        note(f"s.relay {args}")
        got = yield from s.call("e", "echo", args, size=SIZE, resp_size=SIZE,
                                timeout=CALL_TIMEOUT)
        note(f"s.relay-back {got}")
        return got

    def f_fc(src, args):
        note(f"s.fc {args}")
        sim.timeout(0)              # a fast cast taking an id in its slot

    def h_gc(src, args):
        note(f"s.gc {args}")
        yield sim.timeout(0)

    def h_poke(src, args):
        # The neighbour endpoint: zero-delay lane work in between.
        for hop in range(3):
            note(f"t.poke {args} hop {hop}")
            yield sim.timeout(0)
        return args

    def h_echo(src, args):
        return args
        yield

    s.register("req", h_req)
    s.register("relay", h_relay)
    s.register_fast("fc", f_fc)
    s.register("gc", h_gc)
    t.register("poke", h_poke)
    echo.register("echo", h_echo)

    def one_call(agent, dst, method, tag):
        try:
            got = yield from agent.call(dst, method, tag, size=SIZE,
                                        resp_size=SIZE, timeout=CALL_TIMEOUT)
        except RpcTimeout:
            got = "timeout"
        note(f"{tag} -> {got}")

    def client(i, node, agent, script):
        for k, (wait, (dst, method)) in enumerate(script):
            if wait:
                yield sim.timeout(wait * TICK)
            tag = f"c{i}.{k}"
            if method in ("fc", "gc"):
                agent.cast(dst, method, tag, size=SIZE)
            else:
                node.spawn(one_call(agent, dst, method, tag))

    for i, script in enumerate(clients):
        node = cluster.add_node(f"c{i}")
        node.spawn(client(i, node, agent_cls(node, f"c{i}"), script))

    def crasher(at, at_hops, down, down_hops):
        yield sim.timeout(at * TICK / 4)
        for _ in range(at_hops):
            yield sim.timeout(0)
        srv.crash()
        if agent_cls is RefAgent:
            discount[0] += 2        # s's and t's dispatcher processes
        note("crash")
        yield sim.timeout(down * TICK / 4)
        for _ in range(down_hops):
            yield sim.timeout(0)
        srv.recover()
        note("recover")

    if fault is not None:
        echo_node.spawn(crasher(*fault))
    sim.run()
    return log


@settings(max_examples=200, deadline=None)
@given(schedules)
def test_callback_dispatcher_replays_the_dispatcher_process(schedule):
    assert replay(RpcAgent, schedule) == replay(RefAgent, schedule)


def test_a_burst_to_one_endpoint_is_dispatched_one_slot_at_a_time():
    """The shape the property is about, spelled out: three clients send
    in the same instant; each request's handler is spawned from its own
    slot, allocated only after the previous slot's spawn."""
    burst = ([[(0, ("s", "req")), (0, ("s", "fc")), (0, ("s", "relay"))]] * 3,
             None)
    log = replay(RpcAgent, burst)
    assert log == replay(RefAgent, burst)
    arrivals = [(now, what) for now, _, what in log
                if what.startswith(("s.req", "s.fc", "s.relay c"))]
    assert len({now for now, _ in arrivals}) == 1      # one instant
    assert [what.split()[0] for _, what in arrivals] == \
        ["s.fc"] * 3 + ["s.req", "s.relay"] * 3
