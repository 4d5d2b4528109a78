"""Span recorder for the traced pass.

Spans are recorded from *outside* the program, around the calls into each
layer. Model layers (FUSE mount, DUFS client, mdcache, write-behind log,
metadata service, ZooKeeper client, back-end client) are wrapped per
instance, ``instrument_client``-style. The simulation substrate uses
``__slots__``, so its three hooks — ``RpcAgent.call`` (one wire span per
RPC), ``RpcAgent._serve`` (one server span per handled request, parented
to the caller's wire span through the request's ``(reply_to, rpc_id)``)
and ``Node.cpu_work`` (core-queue wait and busy seconds) — are patched on
the class for the duration of :meth:`Recorder.installed` and restored on
exit.

Every wrapper is a pure ``yield from`` delegation: it schedules no
simulator event, so a traced run is event-for-event identical to an
untraced one (the runner checks that the simulated metrics agree).

Parenting is causal, not positional: a simulator process runs one nested
generator chain, so the innermost open span of the *active process* is the
parent of whatever that process opens next.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.node import Node
from repro.sim.rpc import RpcAgent

#: Generator entry points wrapped on each layer's instances.
MDCACHE_METHODS = ("get_payload", "get_children", "resolve_payload")
WBLOG_METHODS = ("append", "barrier")
SERVICE_METHODS = ("get", "exists", "get_children", "resolve", "create",
                   "set_data", "delete", "multi", "sync")
ZKCLIENT_METHODS = SERVICE_METHODS + ("connect",)
BACKEND_METHODS = ("mkdir", "rmdir", "create", "unlink", "stat", "readdir",
                   "rename", "chmod", "truncate", "access", "symlink",
                   "readlink", "statfs", "open", "read", "write")


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "phase",
                 "cpu_wait", "index")

    def __init__(self, layer: str, name: str, start: float,
                 parent: Optional["Span"], phase: str, index: int):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = math.inf       # still open / abandoned mid-flight
        self.parent = parent
        self.phase = phase
        self.cpu_wait = 0.0       # time this span's own code queued for a core
        self.index = index

    def as_row(self, workload: str) -> dict:
        root = self
        while root.parent is not None:
            root = root.parent
        return {"workload": workload, "phase": self.phase,
                "op_id": root.index, "layer": self.layer, "name": self.name,
                "sim_start": self.start,
                "sim_end": None if math.isinf(self.end) else self.end,
                "parent": None if self.parent is None else self.parent.index}


class Recorder:
    """In-memory span store for one deployment. ``phase`` is set by the
    driver around each measured phase; while it is ``None`` (scaffold,
    barrier slack, verification) nothing is recorded."""

    def __init__(self, sim):
        self.sim = sim
        self.phase: Optional[str] = None
        self.spans: List[Span] = []
        self.cpu_busy: Dict[str, float] = defaultdict(float)
        self.cpu_waits: Dict[str, List[float]] = defaultdict(list)
        self.watch_loss: Dict[str, int] = defaultdict(int)
        self._stacks: Dict[object, List[Span]] = {}
        self._rpc: Dict[Tuple[str, int], Span] = {}
        self._server_layer: Dict[str, str] = {}

    # -- recording ---------------------------------------------------------
    def _run(self, layer: str, name: str, gen, parent: Optional[Span] = None):
        """Drive ``gen`` inside a new span; returns its value."""
        proc = self.sim._active
        stack = self._stacks.get(proc)
        if stack is None:
            stack = self._stacks[proc] = []
        elif parent is None:
            parent = stack[-1]
        span = Span(layer, name, self.sim.now, parent, self.phase,
                    len(self.spans))
        self.spans.append(span)
        stack.append(span)
        try:
            result = yield from gen
            span.end = self.sim.now
            return result
        except GeneratorExit:
            raise                  # collected while suspended: end stays open
        except BaseException:
            span.end = self.sim.now
            raise
        finally:
            stack.pop()
            if not stack:
                self._stacks.pop(proc, None)

    def wrap(self, layer: str, fn: Callable,
             name: Optional[str] = None) -> Callable:
        """Span wrapper for a generator method. ``name=None`` takes the
        first positional argument (``FuseMount.call(op, ...)``)."""
        def traced(*args, **kwargs):
            if self.phase is None:
                return (yield from fn(*args, **kwargs))
            return (yield from self._run(layer, name or args[0],
                                         fn(*args, **kwargs)))
        return traced

    def _wrap_methods(self, layer: str, obj, methods: Iterable[str]) -> None:
        for method in methods:
            fn = getattr(obj, method, None)
            if fn is not None and inspect.isgeneratorfunction(fn):
                setattr(obj, method, self.wrap(layer, fn, method))

    # -- installation ------------------------------------------------------
    def instrument(self, dep) -> None:
        """Wrap every layer instance of a built deployment."""
        seen = set()

        def once(obj) -> bool:
            if id(obj) in seen:
                return False
            seen.add(id(obj))
            return True

        for ens in dep.ensembles:
            for endpoint in ens.endpoints:
                self._server_layer[endpoint] = "zk.server"
        for backend in dep.backends:
            for endpoint in [backend.mds_endpoint] + backend.oss_endpoints:
                self._server_layer[endpoint] = "pfs"
        for mount in dep.mounts:
            mount.call = self.wrap("fuse", mount.call)
            for op in mount.ops.implemented():
                mount.ops.register(op, self.wrap("core.client",
                                                 mount.ops.get(op), op))
        for client in dep.clients:
            client.flush = self.wrap("core.client", client.flush, "flush")
            self._wrap_methods("core.mdcache", client.mdcache,
                               MDCACHE_METHODS)
            if client.wblog is not None:
                self._wrap_methods("core.wblog", client.wblog, WBLOG_METHODS)
            service = client.zk
            if once(service):
                self._wrap_methods("mds", service, SERVICE_METHODS)
            for shard in range(service.n_shards):
                zkc = service.client_for_shard(shard)
                if once(zkc):
                    self._wrap_methods("zk.client", zkc, ZKCLIENT_METHODS)
                    zkc.watch_loss_listeners.append(self._on_watch_loss)
            for backend_client in client.backends:
                if once(backend_client):
                    self._wrap_methods("pfs", backend_client, BACKEND_METHODS)

    def _on_watch_loss(self, reason: str) -> None:
        if self.phase is not None:
            self.watch_loss[reason] += 1

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Patch the substrate hooks for the duration of the block."""
        rec = self
        orig_call, orig_serve = RpcAgent.call, RpcAgent._serve
        orig_cpu = Node.cpu_work

        def keyed(agent, gen):
            # The wire span is the innermost open span of this process;
            # the server side finds it through the request's identity.
            key = (agent.endpoint, agent._next_id + 1)
            rec._rpc[key] = rec._stacks[rec.sim._active][-1]
            try:
                return (yield from gen)
            finally:
                rec._rpc.pop(key, None)

        def call(agent, dst, method, *args, **kwargs):
            gen = orig_call(agent, dst, method, *args, **kwargs)
            if rec.phase is None:
                return (yield from gen)
            return (yield from rec._run("sim.wire", method,
                                        keyed(agent, gen)))

        def serve(agent, req):
            parent = rec._rpc.get((req.reply_to, req.rpc_id))
            if parent is None:
                # Not caused by a recorded call (scaffold, or the caller
                # already gave up): nothing to attribute it to.
                return (yield from orig_serve(agent, req))
            layer = rec._server_layer.get(agent.endpoint, "other")
            return (yield from rec._run(layer, req.method,
                                        orig_serve(agent, req), parent))

        def cpu_work(node, seconds):
            if rec.phase is None:
                return (yield from orig_cpu(node, seconds))
            t0 = rec.sim.now
            yield from orig_cpu(node, seconds)
            waited = max(0.0, rec.sim.now - t0 - seconds)
            rec.cpu_busy[node.name] += seconds
            rec.cpu_waits[node.name].append(waited)
            stack = rec._stacks.get(rec.sim._active)
            if stack:
                stack[-1].cpu_wait += waited

        RpcAgent.call, RpcAgent._serve = call, serve
        Node.cpu_work = cpu_work
        try:
            yield self
        finally:
            RpcAgent.call, RpcAgent._serve = orig_call, orig_serve
            Node.cpu_work = orig_cpu

    # -- export ------------------------------------------------------------
    def dump(self, path: str, workload: str) -> None:
        """Write every span as one gzip JSONL row."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_row(workload)) + "\n")
