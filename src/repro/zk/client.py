"""Synchronous ZooKeeper client API (the interface the paper's DUFS uses).

The method set mirrors the C client the authors call out —
``zoo_create`` / ``zoo_get`` / ``zoo_set`` / ``zoo_delete`` plus
``exists`` / ``get_children`` — and adds ``multi`` (atomic multi-op, used
by DUFS rename) and watches. Every method is a generator to be driven with
``yield from`` inside a simulation process.

A client holds a session on one server of the ensemble (like a real ZK
connection). On connection loss it fails over to the next server and
retries with decorrelated-jitter backoff under a per-operation wall-clock
budget (:class:`~repro.models.params.FaultToleranceParams`); an expired
session is transparently re-established. Non-idempotent retries follow the
real client's semantics (the caller may observe ``NodeExistsError`` after
a retried create whose first attempt actually landed) — ``last_retries``
tells callers whether the preceding operation was retried so they can
disambiguate.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Generator, List, Optional, Sequence

from ..models.params import FaultToleranceParams
from ..resilience import LatencyTracker, build_retry, hedged, retry_call
from ..sim.node import Node
from ..sim.rpc import RpcAgent, RpcTimeout
from ..svc import NULL_BUS, OpTrace, TraceBus
from .errors import ConnectionLossError, NotLeaderError, SessionExpiredError
from .protocol import ReadRequest, WatchEvent, WriteRequest

_client_seq = itertools.count()

#: A failed attempt on one of these is charged and retried after a
#: fail-over; anything else is the operation's answer.
_RETRYABLE = (RpcTimeout, ConnectionLossError, NotLeaderError)


class ZKClient:
    """A session-holding client bound to one node of the cluster."""

    def __init__(
        self,
        node: Node,
        servers: Sequence[str],
        prefer: Optional[str] = None,
        name: Optional[str] = None,
        fault: Optional[FaultToleranceParams] = None,
        bus: Optional[TraceBus] = None,
    ):
        if not servers:
            raise ValueError("need at least one server endpoint")
        self.node = node
        self.sim = node.sim
        self.servers = list(servers)
        self.server = prefer if prefer is not None else self.servers[0]
        if self.server not in self.servers:
            raise ValueError(f"prefer {self.server!r} not in server list")
        # The one fault policy: RPC timeout, retry bound, backoff, op
        # budget. Its defaults (5 s timeout, retries with backoff) mean a
        # single lost message cannot hang an operation forever; deadlines,
        # retry budget, breakers and hedging are inert at the defaults (no
        # events, no RNG draws, no fast-fails).
        self.fault = fault or FaultToleranceParams()
        self.session: Optional[int] = None
        self.last_retries = 0       # retries performed by the last request
        self.shard = 0              # metadata shard this client talks to
        # Elastic plane: when set (by ShardedMDS under a live registry),
        # every read/write is stamped with this shard-map epoch so the
        # server-side route guard can bounce requests that routed by a
        # superseded map. None (the default) leaves requests unstamped.
        self.map_epoch: Optional[int] = None
        self.bus = bus if bus is not None else NULL_BUS
        ident = name or f"zkcli{next(_client_seq)}"
        self.retry, self.breakers = build_retry(
            node, f"zk.client.{ident}", self.fault)
        self._hedge_tracker = LatencyTracker()
        self.hedges = 0             # secondary reads actually issued
        self.hedges_won = 0         # ops where the hedge replied first
        self.agent = RpcAgent(node, ident)
        self.agent.register_fast("watch_event", self._on_watch_event)
        self._watch_callbacks: dict[str, List[Callable[[WatchEvent], None]]] = {}
        self.default_watcher: Optional[Callable[[WatchEvent], None]] = None
        # Invoked with a reason string whenever watches registered through
        # this client may have been silently dropped: the session was
        # re-established ("session"), or requests failed over to another
        # server ("failover", typically because the watch-holding server
        # crashed and lost its watch tables). Coherent caches layered on
        # watches (repro.core.mdcache) subscribe and flush.
        self.watch_loss_listeners: List[Callable[[str], None]] = []

    # -- session -----------------------------------------------------------
    def connect(self) -> Generator:
        self.session = yield from self._request("connect", None)
        return self.session

    def keepalive(self, interval: float = 0.3) -> Generator:
        """Session heartbeat loop; run it as a process on the client's
        node (``node.spawn(client.keepalive())``). Stops when the node
        crashes (taking the session's ephemerals with it, after the
        server-side timeout) or when ``close()`` clears the session."""
        from ..sim.core import Interrupt

        while self.session is not None:
            try:
                yield self.sim.timeout(interval)
            except Interrupt:
                return
            if self.session is not None:
                self.agent.cast(self.server, "session_ping", self.session,
                                size=48)

    def close(self) -> Generator:
        if self.session is not None:
            yield from self._request("close_session", self.session)
            self.session = None
        return None

    # -- plumbing ------------------------------------------------------------
    def _request(self, method: str, args: Any, size: int = 160,
                 trace_as: Optional[str] = None) -> Generator:
        t0 = self.sim.now
        if (self.map_epoch is not None
                and isinstance(args, (ReadRequest, WriteRequest))
                and args.map_epoch < 0):
            args = dataclasses.replace(args, map_epoch=self.map_epoch)
        state = self.retry.begin(t0)
        reconnects = 0
        ok = False
        try:
            while True:
                try:
                    result = yield from retry_call(
                        self.sim, self.retry, self.breakers, state,
                        pick=lambda: self.server,
                        attempt=lambda server: self._issue(
                            server, method, args, size, state.bounds),
                        retry_on=_RETRYABLE, gave_up=self._gave_up,
                        between=self._fail_over)
                    ok = True
                    return result
                except SessionExpiredError:
                    # The server no longer knows our session: re-establish
                    # it, rebind the request and re-enter the retry loop
                    # with the same attempt state, unless this *is* session
                    # management.
                    self.breakers.on_success(state.endpoint)  # it is alive
                    reconnects += 1
                    if reconnects > 2 or method in ("connect",
                                                    "close_session"):
                        raise
                    self.session = None
                    yield from self.connect()
                    self._notify_watch_loss("session")
                    if isinstance(args, WriteRequest):
                        args = self._rebind_session(args)
        finally:
            # Published last so nested connect() calls cannot clobber it;
            # callers use it to disambiguate retried non-idempotent writes.
            self.last_retries = state.attempt + reconnects
            self.bus.record(OpTrace("zk", self.agent.endpoint,
                                    trace_as or method, t0, t0,
                                    self.sim.now, ok,
                                    retries=self.last_retries,
                                    shard=self.shard))

    @staticmethod
    def _gave_up(server: str, exc: Optional[Exception]) -> Exception:
        """What an exhausted retry loop raises: connection loss, unless
        the last attempt already carried a ZooKeeper error of its own."""
        if exc is None:
            return ConnectionLossError(msg=f"breaker open for {server}")
        if isinstance(exc, RpcTimeout):
            return ConnectionLossError(msg=str(exc))
        return exc

    def _issue(self, server: str, method: str, args: Any, size: int,
               bounds: dict) -> Generator:
        """One attempt: a plain call, or a hedged pair for reads."""
        if (self.fault.hedge_enabled and method == "read"
                and len(self.servers) > 1):
            return self._hedged_read(server, args, {"size": size, **bounds})
        return self.agent.call(server, method, args, size=size, **bounds)

    def _hedged_read(self, server: str, args: Any, kw: dict) -> Generator:
        t_start = self.sim.now
        alt = self._hedge_target(server)
        if alt is None:
            result = yield from self.agent.call(server, "read", args, **kw)
            self._hedge_tracker.record(self.sim.now - t_start)
            return result

        def primary():
            return self.agent.call(server, "read", args, **kw)

        def secondary():
            self.hedges += 1
            return self.agent.call(alt, "read", args, **kw)

        result, won = yield from hedged(self.node, primary, secondary,
                                        self._hedge_tracker.delay())
        if won:
            self.hedges_won += 1
        self._hedge_tracker.record(self.sim.now - t_start)
        return result

    def _hedge_target(self, server: str) -> Optional[str]:
        """Another live server to hedge a read against (breaker-aware);
        None if every alternative is down or open-circuited."""
        n = len(self.servers)
        idx = self.servers.index(server)
        for k in range(1, n):
            ep = self.servers[(idx + k) % n]
            if self.node.network.is_down(ep):
                continue
            br = self.breakers.breakers.get(ep)
            if br is not None and br.state == "open":
                continue
            return ep
        return None

    def _rebind_session(self, req: WriteRequest) -> WriteRequest:
        session = self.session or 0
        if req.op == "multi":
            ops = tuple(dataclasses.replace(o, session=session)
                        if o.ephemeral else o for o in req.ops)
            return dataclasses.replace(req, ops=ops, session=session)
        return dataclasses.replace(req, session=session)

    def _fail_over(self) -> None:
        idx = self.servers.index(self.server)
        self.server = self.servers[(idx + 1) % len(self.servers)]
        self._notify_watch_loss("failover")

    def _notify_watch_loss(self, reason: str) -> None:
        for fn in self.watch_loss_listeners:
            fn(reason)

    def _watch_flag(self, watch) -> bool:
        if watch is None:
            return False
        if callable(watch):
            return True
        return bool(watch)

    def _register_watch(self, path: str, watch) -> None:
        if callable(watch):
            self._watch_callbacks.setdefault(path, []).append(watch)

    def _on_watch_event(self, src: str, event: WatchEvent) -> None:
        callbacks = self._watch_callbacks.pop(event.path, [])
        for cb in callbacks:
            cb(event)
        if self.default_watcher is not None:
            self.default_watcher(event)

    # -- reads ---------------------------------------------------------------
    def exists(self, path: str, watch=None) -> Generator:
        """Stat if the node exists, else None. ``zoo_exists``."""
        flag = self._watch_flag(watch)
        stat = yield from self._request(
            "read", ReadRequest("exists", path, watch=flag),
            size=120 + len(path))
        if flag:
            self._register_watch(path, watch)
        return stat

    def get(self, path: str, watch=None) -> Generator:
        """(data, stat). ``zoo_get``."""
        flag = self._watch_flag(watch)
        result = yield from self._request(
            "read", ReadRequest("get", path, watch=flag),
            size=120 + len(path))
        if flag:
            self._register_watch(path, watch)
        return result

    def resolve(self, path: str, watch=None) -> Generator:
        """Server-side whole-path lookup: one RPC regardless of depth.

        Returns a :class:`~repro.zk.protocol.ResolveResult` — never raises
        ``NoNodeError``; a missing path comes back as ``status == "miss"``
        with the nearest existing ancestor. Travels on the ``read`` wire
        method, so hedging, breakers and deadlines apply unchanged; a data
        watch is registered only when the target exists (``"ok"``)."""
        flag = self._watch_flag(watch)
        res = yield from self._request(
            "read", ReadRequest("resolve", path, watch=flag),
            size=120 + len(path), trace_as="resolve")
        if flag and res.status == "ok":
            self._register_watch(path, watch)
        return res

    def get_children(self, path: str, watch=None) -> Generator:
        flag = self._watch_flag(watch)
        names = yield from self._request(
            "read", ReadRequest("children", path, watch=flag),
            size=120 + len(path))
        if flag:
            self._register_watch(path, watch)
        return names

    # -- writes ----------------------------------------------------------------
    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False) -> Generator:
        """Create a znode; returns the final path. ``zoo_create``."""
        req = WriteRequest(op="create", path=path, data=data,
                           ephemeral=ephemeral, sequential=sequential,
                           session=self.session or 0)
        result = yield from self._request("write", req,
                                          size=140 + len(path) + len(data))
        return result

    def set_data(self, path: str, data: bytes, version: int = -1) -> Generator:
        """``zoo_set``."""
        req = WriteRequest(op="set", path=path, data=data, version=version)
        result = yield from self._request("write", req,
                                          size=140 + len(path) + len(data))
        return result

    def delete(self, path: str, version: int = -1) -> Generator:
        """``zoo_delete``."""
        req = WriteRequest(op="delete", path=path, version=version)
        result = yield from self._request("write", req, size=140 + len(path))
        return result

    def multi(self, ops: Sequence[WriteRequest]) -> Generator:
        """Atomic multi-op; ``ops`` built with the ``op_*`` helpers below."""
        req = WriteRequest(op="multi", ops=tuple(ops),
                           session=self.session or 0)
        size = 140 + sum(len(o.path) + len(o.data) + 16 for o in ops)
        result = yield from self._request("write", req, size=size)
        return result

    def sync(self, path: str = "/") -> Generator:
        """``zoo_sync``: after this returns, reads on this client's server
        observe every write committed before the call."""
        result = yield from self._request("sync", path, size=120 + len(path))
        return result

    # -- multi builders ---------------------------------------------------------
    @staticmethod
    def op_create(path: str, data: bytes = b"", ephemeral: bool = False,
                  session: int = 0) -> WriteRequest:
        return WriteRequest(op="create", path=path, data=data,
                            ephemeral=ephemeral, session=session)

    @staticmethod
    def op_delete(path: str, version: int = -1) -> WriteRequest:
        return WriteRequest(op="delete", path=path, version=version)

    @staticmethod
    def op_set(path: str, data: bytes, version: int = -1) -> WriteRequest:
        return WriteRequest(op="set", path=path, data=data, version=version)

    @staticmethod
    def op_check(path: str, version: int = -1) -> WriteRequest:
        return WriteRequest(op="check", path=path, version=version)
