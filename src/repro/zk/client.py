"""Synchronous ZooKeeper client API (the interface the paper's DUFS uses).

The method set mirrors the C client the authors call out —
``zoo_create`` / ``zoo_get`` / ``zoo_set`` / ``zoo_delete`` plus
``exists`` / ``get_children`` — and adds ``multi`` (atomic multi-op, used
by DUFS rename) and watches. Every method is a generator to be driven with
``yield from`` inside a simulation process. The client is the only watch
registry: a data and a child table, path -> ordered set of callbacks; a
fail-over hands each a ``lost`` event.

A client talks to one server of the ensemble. It opens no session: DUFS
keeps every name in a persistent znode, so nothing needs one. On
connection loss it fails over to the next server and retries with
decorrelated-jitter backoff under a per-operation wall-clock budget
(:class:`~repro.models.params.FaultToleranceParams`). Non-idempotent
retries follow the real client's semantics (the caller may observe
``NodeExistsError`` after a retried create whose first attempt actually
landed) — ``last_retries`` tells callers whether the preceding operation
was retried so they can disambiguate.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..models.params import FaultToleranceParams
from ..resilience import build_retry, retry_call
from ..sim.node import Node
from ..sim.rpc import RpcAgent, RpcTimeout
from ..svc import NULL_BUS, OpTrace, TraceBus
from .errors import ConnectionLossError, NotLeaderError
from .protocol import ReadRequest, WatchEvent, WriteRequest

_client_seq = itertools.count()

#: A failed attempt on one of these is charged and retried after a
#: fail-over; anything else is the operation's answer.
_RETRYABLE = (RpcTimeout, ConnectionLossError, NotLeaderError)


class ZKClient:
    """A client bound to one node of the cluster."""

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
        # retry budget and breakers are inert at the defaults (no events,
        # no RNG draws, no fast-fails).
        self.fault = fault or FaultToleranceParams()
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
        self.agent = RpcAgent(node, ident)
        self.agent.register_fast("watch_event", self._on_watch_event)
        self._data_watches: Dict[str, dict] = {}
        self._child_watches: Dict[str, dict] = {}
        self.default_watcher: Optional[Callable[[WatchEvent], None]] = None
        # Called with "failover" after the watches were lost.
        self.watch_loss_listeners: List[Callable[[str], None]] = []

    # -- plumbing ------------------------------------------------------------
    def _request(self, method: str, args: Any, size: int = 160,
                 trace_as: Optional[str] = None) -> Generator:
        t0 = self.sim.now
        if (self.map_epoch is not None
                and isinstance(args, (ReadRequest, WriteRequest))
                and args.map_epoch < 0):
            args = dataclasses.replace(args, map_epoch=self.map_epoch)
        state = self.retry.begin(t0)
        ok = False
        try:
            result = yield from retry_call(
                self.sim, self.retry, self.breakers, state,
                pick=lambda: self.server,
                attempt=lambda server: self.agent.call(
                    server, method, args, size=size, **state.bounds),
                retry_on=_RETRYABLE, gave_up=self._gave_up,
                between=self._fail_over)
            ok = True
            return result
        finally:
            # Callers use it to disambiguate retried non-idempotent writes.
            self.last_retries = state.attempt
            self.bus.record(OpTrace("zk", self.agent.endpoint,
                                    trace_as or method, t0, self.sim.now, ok,
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

    def _fail_over(self) -> None:
        idx = self.servers.index(self.server)
        self.server = self.servers[(idx + 1) % len(self.servers)]
        self._notify_watch_loss("failover")

    def _notify_watch_loss(self, reason: str) -> None:
        """One ``lost`` event per held (path, watcher), then listeners."""
        tables = (self._data_watches, self._child_watches)
        held = dict.fromkeys((path, cb) for table in tables
                             for path, cbs in table.items() for cb in cbs)
        for table in tables:
            table.clear()
        for path, cb in held:
            cb(WatchEvent("lost", path))
        for fn in self.watch_loss_listeners:
            fn(reason)

    def _on_watch_event(self, src: str, event: WatchEvent) -> None:
        """``child`` fires the child table, ``deleted`` both, else data."""
        fired: dict = {}
        if event.kind != "child":
            fired.update(self._data_watches.pop(event.path, ()))
        if event.kind in ("child", "deleted"):
            fired.update(self._child_watches.pop(event.path, ()))
        for cb in fired:
            cb(event)
        if self.default_watcher is not None:
            self.default_watcher(event)

    # -- reads ---------------------------------------------------------------
    def exists(self, path: str, watch=None) -> Generator:
        """Stat if the node exists, else None. ``zoo_exists``."""
        flag = callable(watch) or bool(watch)
        stat = yield from self._request(
            "read", ReadRequest("exists", path, watch=flag),
            size=120 + len(path))
        if callable(watch):
            self._data_watches.setdefault(path, {})[watch] = None
        return stat

    def get(self, path: str, watch=None) -> Generator:
        """(data, stat). ``zoo_get``."""
        flag = callable(watch) or bool(watch)
        result = yield from self._request(
            "read", ReadRequest("get", path, watch=flag),
            size=120 + len(path))
        if callable(watch):
            self._data_watches.setdefault(path, {})[watch] = None
        return result

    def resolve(self, path: str, watch=None) -> Generator:
        """Server-side whole-path lookup: one RPC regardless of depth.

        Returns a :class:`~repro.zk.protocol.ResolveResult` — never raises
        ``NoNodeError``; a missing path comes back as ``status == "miss"``
        with the nearest existing ancestor. Travels on the ``read`` wire
        method, so retries, breakers and deadlines apply unchanged; a data
        watch is registered only when the target exists (``"ok"``)."""
        flag = callable(watch) or bool(watch)
        res = yield from self._request(
            "read", ReadRequest("resolve", path, watch=flag),
            size=120 + len(path), trace_as="resolve")
        if callable(watch) and res.status == "ok":
            self._data_watches.setdefault(path, {})[watch] = None
        return res

    def get_children(self, path: str, watch=None) -> Generator:
        flag = callable(watch) or bool(watch)
        names = yield from self._request(
            "read", ReadRequest("children", path, watch=flag),
            size=120 + len(path))
        if callable(watch):
            self._child_watches.setdefault(path, {})[watch] = None
        return names

    # -- writes ----------------------------------------------------------------
    def create(self, path: str, data: bytes = b"") -> Generator:
        """Create a znode; returns its path. ``zoo_create``."""
        req = WriteRequest(op="create", path=path, data=data)
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
        req = WriteRequest(op="multi", ops=tuple(ops))
        size = 140 + sum(len(o.path) + len(o.data) + 16 for o in ops)
        result = yield from self._request("write", req, size=size)
        return result

    # -- multi builders ---------------------------------------------------------
    @staticmethod
    def op_create(path: str, data: bytes = b"") -> WriteRequest:
        return WriteRequest(op="create", path=path, data=data)

    @staticmethod
    def op_delete(path: str, version: int = -1) -> WriteRequest:
        return WriteRequest(op="delete", path=path, version=version)

    @staticmethod
    def op_set(path: str, data: bytes, version: int = -1) -> WriteRequest:
        return WriteRequest(op="set", path=path, data=data, version=version)
