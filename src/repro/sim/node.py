"""Cluster and node abstractions.

A :class:`Cluster` owns the simulator, the network fabric, and the named
random streams. A :class:`Node` models one machine of the paper's testbed:
a fixed number of CPU cores (a shared :class:`Resource` — co-located
services like the ZooKeeper server and DUFS client processes genuinely
compete for them), one disk, and a registry of running processes so the
failure injector can crash and recover the whole machine.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, Iterable, NamedTuple,
                    Optional, Sequence, Union)

from .core import _PENDING, AllOf, Process, Simulator
from .network import Network
from .random import RandomStreams
from .resources import Resource


class Outcome(NamedTuple):
    """How a shielded process settled: ``value`` when its generator
    returned, ``error`` — the exception, a node-crash
    :class:`~repro.sim.core.Interrupt` included — when one ended it."""

    value: Any = None
    error: Optional[Exception] = None

    def result(self) -> Any:
        """The value, or the error re-raised in the *caller's* process —
        how an outcome the caller does not handle stays loud."""
        if self.error is not None:
            raise self.error
        return self.value


def _shield(gen: Generator) -> Generator:
    """Drive ``gen`` to its :class:`Outcome` — a pure ``yield from``
    delegation, no event of its own. Nothing ``gen`` raises escapes: the
    strict simulator aborts the whole run on an exception that leaves a
    process, so a child's failure must travel to its parent as a value."""
    try:
        return Outcome((yield from gen))
    except Exception as exc:
        return Outcome(error=exc)


class Cluster:
    """Top-level container for one simulated experiment."""

    __slots__ = ("sim", "streams", "network", "nodes")

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[float] = None,
        bandwidth: Optional[float] = None,
        strict: bool = True,
    ):
        self.sim = Simulator(strict=strict)
        self.streams = RandomStreams(seed)
        kwargs = {}
        if latency is not None:
            kwargs["latency"] = latency
        if bandwidth is not None:
            kwargs["bandwidth"] = bandwidth
        self.network = Network(self.sim, streams=self.streams, **kwargs)
        self.nodes: Dict[str, "Node"] = {}

    def add_node(self, name: str, cores: int = 8, disk_concurrency: int = 1) -> "Node":
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = Node(self, name, cores=cores, disk_concurrency=disk_concurrency)
        self.nodes[name] = node
        return node

    def run(self, until=None):
        return self.sim.run(until)


class Node:
    """One machine: CPU cores, a disk, and crashable processes."""

    __slots__ = ("cluster", "sim", "network", "name", "cores",
                 "disk_concurrency", "cpu", "disk", "disk_factor", "down",
                 "_procs", "_procs_cap", "_on_crash", "_on_recover",
                 "_endpoints")

    def __init__(self, cluster: Cluster, name: str, cores: int = 8,
                 disk_concurrency: int = 1):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.name = name
        self.cores = cores
        self.disk_concurrency = disk_concurrency
        self.cpu = Resource(self.sim, cores)
        self.disk = Resource(self.sim, disk_concurrency)
        # Chaos hook: >1 stretches every disk_io (a degraded/contended disk).
        self.disk_factor = 1.0
        self.down = False
        self._procs: list[Process] = []
        self._procs_cap = 256          # GC sweep threshold (doubles with load)
        self._on_crash: list[Callable[[], None]] = []
        self._on_recover: list[Callable[[], None]] = []
        self._endpoints: list[str] = []

    # -- process management ----------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a process whose lifetime is bound to this node."""
        proc = Process(self.sim, gen, name or f"{self.name}.proc")
        procs = self._procs
        procs.append(proc)
        if len(procs) >= self._procs_cap:
            # Garbage-collect finished handlers. The threshold doubles
            # with the live count so a busy server (thousands of
            # short-lived RPC handlers) sweeps amortized O(1) per spawn
            # instead of rescanning a near-full list every few spawns.
            self._procs = procs = [p for p in procs if p._value is _PENDING]
            self._procs_cap = max(256, 2 * len(procs))
        return proc

    def shielded(self, gen: Generator, name: str = "") -> Process:
        """:meth:`spawn` ``gen`` so that the process's *value* is its
        :class:`Outcome`; the process itself never fails."""
        return self.spawn(_shield(gen), name)

    def gather(self, gens: Iterable[Generator],
               name: Union[str, Sequence[str]] = "") -> Generator:
        """Run ``gens`` concurrently, one :meth:`shielded` child each
        (``name``: one for all, or one per child), and resume only when
        **every** child has settled — a fast failure releases nobody, so
        no straggler outlives the wait. Returns one :class:`Outcome` per
        child, in call order."""
        gens = list(gens)
        names = [name] * len(gens) if isinstance(name, str) else name
        procs = [self.shielded(gen, n)
                 for gen, n in zip(gens, names, strict=True)]
        if procs:
            yield AllOf(self.sim, procs)
        return [proc.value for proc in procs]

    def register_endpoint(self, endpoint: str) -> None:
        self._endpoints.append(endpoint)

    def on_crash(self, cb: Callable[[], None]) -> None:
        self._on_crash.append(cb)

    def on_recover(self, cb: Callable[[], None]) -> None:
        self._on_recover.append(cb)

    # -- resource helpers --------------------------------------------------
    # A free unit is taken without a Request: the service timeout itself is
    # the holder. A grant on a free unit allocates no creation id, so the
    # timeout gets the id it always got. Release goes through ``self.cpu``
    # as it is *then*: a crash replaced it, and a dead holder is unknown
    # there (no raise, no grant).
    def cpu_work(self, seconds: float) -> Generator:
        """Occupy one core for ``seconds`` of service time."""
        cpu = self.cpu
        free = len(cpu.users) < cpu.capacity
        if free:
            hold = self.sim.timeout(seconds)
            cpu.users.append(hold)
        else:
            hold = cpu.request()
        try:
            yield hold
            if not free:
                yield self.sim.timeout(seconds)
        finally:
            self.cpu.release(hold)

    def disk_io(self, seconds: float) -> Generator:
        """Serialize on the disk for ``seconds`` (sync transaction model)."""
        disk = self.disk
        free = len(disk.users) < disk.capacity
        if free:
            hold = self.sim.timeout(seconds * self.disk_factor)
            disk.users.append(hold)
        else:
            hold = disk.request()
        try:
            yield hold
            if not free:
                yield self.sim.timeout(seconds * self.disk_factor)
        finally:
            self.disk.release(hold)

    # -- failure injection -------------------------------------------------
    def crash(self) -> None:
        """Kill every process on the node and drop its in-flight traffic."""
        if self.down:
            return
        self.down = True
        for ep in self._endpoints:
            self.network.set_down(ep, True)
        for proc in self._procs:
            proc.interrupt("node-crash")
        self._procs.clear()
        # Anything held on CPU/disk dies with the processes.
        self.cpu = Resource(self.sim, self.cores)
        self.disk = Resource(self.sim, self.disk_concurrency)
        for cb in self._on_crash:
            cb()

    def recover(self) -> None:
        if not self.down:
            return
        self.down = False
        for ep in self._endpoints:
            self.network.set_down(ep, False)
        for cb in self._on_recover:
            cb()

    def __repr__(self) -> str:  # pragma: no cover
        state = "down" if self.down else "up"
        return f"<Node {self.name} cores={self.cores} {state}>"
