"""Request/response RPC layer over the simulated network.

Each service endpoint (an MDS, a ZooKeeper server, a client library) owns an
:class:`RpcAgent`. Every message the network delivers to the endpoint lands
in the agent's delivery hook, and the agent dispatches them one at a time,
in delivery order, each from its own slot on the simulator's same-instant
lane: a handler process is spawned per request, a response completes its
waiting caller. Handlers are generator functions ``handler(src, args) ->
value`` that may yield sim events (CPU work, disk, nested RPCs). Exceptions
raised by handlers are marshalled to the caller and re-raised there,
preserving POSIX errnos.

The dispatcher is a callback chain, not a process, but it takes the lane
slots — same position, same creation id — that a dispatcher process
blocking on an inbox ``Store`` would (docs/MODEL.md §12): a message that
finds the agent idle gets its slot at delivery (a response needs none and
completes on the spot); one that finds a slot in flight waits and gets its
own only after that slot's handler has returned. Other same-instant events
order against these slots, so replay is unchanged.
"""

from __future__ import annotations

from collections import deque
from sys import intern
from typing import Any, Callable, Dict, Generator, Optional

from .core import _PENDING, AnyOf, Event, Interrupt
from .network import _Delivery
from .node import Node

DEFAULT_REQ_SIZE = 192
DEFAULT_RESP_SIZE = 160

_UNSET = object()   # sentinel: "inherit the ambient deadline"


class RpcTimeout(Exception):
    """The reply did not arrive within the caller's deadline."""

    def __init__(self, dst: str, method: str):
        super().__init__(f"rpc {method} to {dst} timed out")
        self.dst = dst
        self.method = method


class RemoteError(Exception):
    """Wrapper for non-FS exceptions raised by a remote handler."""


class _Request:
    """One in-flight call (plain ``__slots__`` class: allocated per RPC on
    the hot path, so no dataclass machinery)."""

    __slots__ = ("rpc_id", "reply_to", "method", "args", "resp_size",
                 "deadline")

    def __init__(self, rpc_id: int, reply_to: str, method: str, args: Any,
                 resp_size: int, deadline: Optional[float] = None):
        self.rpc_id = rpc_id
        self.reply_to = reply_to
        self.method = method
        self.args = args
        self.resp_size = resp_size
        # absolute sim time; None = unbounded
        self.deadline = deadline


class _Response:
    __slots__ = ("rpc_id", "ok", "value")

    def __init__(self, rpc_id: int, ok: bool, value: Any):
        self.rpc_id = rpc_id
        self.ok = ok
        self.value = value


class _Cast:
    __slots__ = ("method", "args", "src")

    def __init__(self, method: str, args: Any, src: str):
        self.method = method
        self.args = args
        self.src = src


class Reply:
    """Handlers may return ``Reply(value, size)`` to set the response size."""

    __slots__ = ("value", "size")

    def __init__(self, value: Any, size: int = DEFAULT_RESP_SIZE):
        self.value = value
        self.size = size


class RpcAgent:
    """Bidirectional RPC endpoint bound to a node."""

    __slots__ = ("node", "sim", "network", "endpoint", "handlers",
                 "fast_handlers", "_pending", "_next_id", "_spawn_names",
                 "_slot", "_backlog", "_dispatch_cb")

    def __init__(self, node: Node, endpoint: str):
        self.node = node
        self.sim = node.sim
        self.network = node.network
        self.endpoint = endpoint
        self.network.register(endpoint, host=node.name)
        node.register_endpoint(endpoint)
        self.handlers: Dict[str, Callable] = {}
        self.fast_handlers: Dict[str, Callable] = {}
        self._pending: Dict[int, Event] = {}
        self._next_id = 0
        # method -> interned "endpoint.method" label, built once: spawn
        # names for request handlers must not re-format a string per call.
        self._spawn_names: Dict[str, str] = {}
        self._slot: Optional[_Delivery] = None   # the one slot in flight
        self._backlog: deque = deque()           # delivered behind it
        self._dispatch_cb = self._dispatch       # one bound method, reused
        self._restart()
        self.network.set_inbox_hook(endpoint, self._on_delivery)
        node.on_crash(self._fail_pending)
        node.on_recover(self._restart)

    # -- server side -------------------------------------------------------
    def register(self, method: str, handler: Callable) -> None:
        """Register ``handler(src, args)`` — a generator function."""
        self.handlers[intern(method)] = handler

    def _spawn_name(self, method: str) -> str:
        name = self._spawn_names.get(method)
        if name is None:
            name = self._spawn_names[method] = intern(
                f"{self.endpoint}.{method}")
        return name

    def register_fast(self, method: str, fn: Callable) -> None:
        """Register a plain-function *cast* handler, run inline in the
        message's dispatch slot with no process spawn. For cheap
        bookkeeping on hot paths (ZAB acks/commits); must not block or
        consume resources."""
        self.fast_handlers[method] = fn

    def _on_delivery(self, msg: _Delivery) -> None:
        """The network's delivery hook: every message for this endpoint."""
        if self._slot is not None:
            # Busy: wait for a slot of its own behind the one in flight.
            self._backlog.append(msg)
        elif msg.payload.__class__ is _Response:
            # Idle + response: completed on the spot, without a slot — it
            # spawns nothing, and the replay pins have held this short cut
            # since it was introduced.
            payload = msg.payload
            waiter = self._pending.pop(payload.rpc_id, None)
            if waiter is not None and waiter._value is _PENDING:
                waiter.succeed(payload)
        else:
            # Idle + request/cast: inlined _arm (one per message — hot).
            self._slot = msg
            msg.callbacks = [self._dispatch_cb]
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            sim._lane.append((eid, msg, None))

    def _arm(self, msg: _Delivery) -> None:
        """Make ``msg`` the slot in flight: the spent delivery event goes
        back on the lane, now, with the dispatch callback."""
        self._slot = msg
        msg.callbacks = [self._dispatch_cb]
        sim = self.sim
        sim._eid = eid = sim._eid + 1
        sim._lane.append((eid, msg, None))

    def _dispatch(self, msg: _Delivery) -> None:
        payload = msg.payload
        cls = payload.__class__
        if cls is _Request:
            # _serve is looked up per message: perfbench patches it on the
            # class (DESIGN.md, late-binding rule).
            proc = self.node.spawn(self._serve(payload),
                                   self._spawn_name(payload.method))
            # The handler process runs under the caller's remaining
            # budget; nested RPCs it issues inherit it ambiently.
            proc.deadline = payload.deadline
        elif cls is _Cast:
            fast = self.fast_handlers.get(payload.method)
            if fast is not None:
                fast(payload.src, payload.args)
            else:
                handler = self.handlers.get(payload.method)
                if handler is not None:
                    self.node.spawn(self._serve_cast(handler, payload),
                                    self._spawn_name(payload.method))
        elif cls is _Response:
            waiter = self._pending.pop(payload.rpc_id, None)
            if waiter is not None and waiter._value is _PENDING:
                waiter.succeed(payload)
        # Only now — after the handler above ran and took its creation
        # ids — does the oldest waiting message get the next slot.
        if self._backlog:
            self._arm(self._backlog.popleft())
        else:
            self._slot = None

    def _serve(self, req: _Request) -> Generator:
        handler = self.handlers.get(req.method)
        resp_size = req.resp_size
        if handler is None:
            resp = _Response(req.rpc_id, False, RemoteError(
                f"no handler {req.method!r} at {self.endpoint}"))
        else:
            try:
                value = yield from handler(req.reply_to, req.args)
                if isinstance(value, Reply):
                    resp_size = value.size
                    value = value.value
                resp = _Response(req.rpc_id, True, value)
            except Interrupt:
                return  # node died mid-service; caller will time out
            except Exception as exc:
                resp = _Response(req.rpc_id, False, exc)
        self.network.send(self.endpoint, req.reply_to, resp, resp_size)

    def _serve_cast(self, handler: Callable, cast: _Cast) -> Generator:
        try:
            yield from handler(cast.src, cast.args)
        except Interrupt:
            return

    # -- client side -------------------------------------------------------
    def call(
        self,
        dst: str,
        method: str,
        args: Any = None,
        size: int = DEFAULT_REQ_SIZE,
        resp_size: int = DEFAULT_RESP_SIZE,
        timeout: Optional[float] = None,
        deadline: Any = _UNSET,
    ) -> Generator:
        """Issue an RPC and wait for the reply (``yield from`` this).

        ``deadline`` is an *absolute* sim time that caps the local wait:
        the call raises :class:`RpcTimeout` no later than the deadline,
        immediately if it has already passed. It rides the request to the
        server, whose handler process inherits it, so the RPCs a handler
        nests are capped by the same remaining budget. Left unset, it
        inherits the ambient deadline of the calling process (None =
        unbounded, the default); pass ``None`` explicitly to opt a call out
        of an inherited deadline.
        """
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

    def cast(self, dst: str, method: str, args: Any = None,
             size: int = DEFAULT_REQ_SIZE) -> None:
        """One-way message (no reply expected)."""
        self.network.send(self.endpoint, dst, _Cast(method, args, self.endpoint), size)

    # -- failure plumbing ---------------------------------------------------
    def _fail_pending(self) -> None:
        """Node crash: the slot in flight and the messages behind it die
        with the pending calls (the run loop skips a callback-less event)."""
        self._pending.clear()
        self._backlog.clear()
        if self._slot is not None:
            self._slot.callbacks = None
            self._slot = None

    def _restart(self) -> None:
        """(Re)start dispatching with one empty slot — a payload-less
        delivery to itself: what is delivered before it fires queues
        behind it, as it did behind a dispatcher process's first run."""
        self._arm(_Delivery(self.sim, self.endpoint, self.endpoint, None, 0,
                            self.sim.now, None))
