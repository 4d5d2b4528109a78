"""Cluster network model.

Point-to-point messages between named endpoints with per-pair FIFO delivery
(TCP-like ordering — required for ZAB correctness), configurable one-way
latency and bandwidth, and failure features: node down-drops and partitions.

The default parameters approximate the paper's testbed: 1 GigE, ~60 us
one-way latency for small messages, ~117 MB/s effective bandwidth.
Messages between co-located endpoints (same node name) use loopback cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .core import Event, Simulator

GIGE_LATENCY = 60e-6       # one-way small-message latency (s)
GIGE_BANDWIDTH = 117e6     # effective bytes/s on 1 GigE
LOOPBACK_LATENCY = 8e-6    # same-host latency (s)
LOOPBACK_BANDWIDTH = 2e9

#: Stream name all link-fault randomness draws from. Draws happen only
#: while a fault with loss/duplication is installed, so healthy runs see
#: exactly the event sequence they saw before chaos existed.
CHAOS_STREAM = "net.chaos"

#: Route-cache sentinel: the pair is unreachable (down endpoint/partition).
_DROP = ("drop",)


class _Delivery(Event):
    """Scheduled arrival of one message.

    The delivery *event* carries the envelope fields itself (``src``,
    ``dst``, ``payload``, ``size``, ``sent_at`` — all a consumer ever reads)
    and is handed to the destination's delivery hook directly, so one
    transmitted message costs a single allocation (no separate envelope +
    event + closure)."""

    __slots__ = ("src", "dst", "payload", "size", "sent_at")

    def __init__(self, sim: Simulator, src: str, dst: str, payload: Any,
                 size: int, sent_at: float, cb):
        self.sim = sim
        self.callbacks = [cb]
        self._value = None       # triggered from creation, like a Timeout
        self._ok = True
        self._used = False
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.sent_at = sent_at


@dataclass(frozen=True)
class LinkFault:
    """Degradation installed on a directed host pair (``"*"`` = any host).

    ``latency_factor``/``bandwidth_factor`` scale the link's base delay
    model; ``loss`` drops each message independently with the given
    probability; ``duplicate`` delivers a second, late copy with the given
    probability (out of order, as real duplication is).
    """

    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    loss: float = 0.0
    duplicate: float = 0.0

    @property
    def stochastic(self) -> bool:
        return self.loss > 0.0 or self.duplicate > 0.0


class Network:
    """Message fabric connecting endpoints registered by name."""

    __slots__ = ("sim", "latency", "bandwidth", "loopback_latency",
                 "loopback_bandwidth", "streams", "_hosts",
                 "_down", "_last_delivery", "_partition", "_link_faults",
                 "_deliver_cb", "_routes", "_hooks")

    def __init__(
        self,
        sim: Simulator,
        latency: float = GIGE_LATENCY,
        bandwidth: float = GIGE_BANDWIDTH,
        loopback_latency: float = LOOPBACK_LATENCY,
        loopback_bandwidth: float = LOOPBACK_BANDWIDTH,
        streams=None,
    ):
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.loopback_latency = loopback_latency
        self.loopback_bandwidth = loopback_bandwidth
        self.streams = streams                 # RandomStreams (link faults)
        self._hosts: dict[str, str] = {}       # endpoint -> host name
        self._down: set[str] = set()           # down endpoints
        self._last_delivery: dict[tuple[str, str], float] = {}
        self._partition: Optional[dict[str, int]] = None  # host -> group id
        # directed (src_host, dst_host) -> LinkFault; "*" matches any host
        self._link_faults: dict[tuple[str, str], LinkFault] = {}
        # single bound callback shared by every _Delivery event
        self._deliver_cb = self._deliver
        self._hooks: dict[str, Any] = {}       # endpoint -> delivery hook
        # (src, dst) -> (latency, 1/bandwidth, loss, duplicate), or the
        # _DROP sentinel for unreachable pairs. The cache folds the host
        # lookup, partition check, and link-fault resolution into one dict
        # get on the send hot path; every topology or fault mutation
        # (set_down, partition, heal, degrade/restore_link) clears it.
        self._routes: dict[tuple[str, str], tuple] = {}

    # -- topology --------------------------------------------------------
    def register(self, endpoint: str, hook, host: Optional[str] = None) -> None:
        """Attach ``endpoint`` (on ``host``, default a host of its own): every
        message delivered to it is handed to ``hook(msg)`` when its delivery
        event fires; ``msg`` is the spent event and the hook's to keep (an
        :class:`RpcAgent` keeps its own per-endpoint FIFO)."""
        self._hooks[endpoint] = hook
        self._hosts[endpoint] = host or endpoint
        self._routes.clear()

    # -- failures --------------------------------------------------------
    def set_down(self, endpoint: str, down: bool = True) -> None:
        self._routes.clear()
        if down:
            self._down.add(endpoint)
        else:
            self._down.discard(endpoint)

    def partition(self, groups: list[list[str]]) -> None:
        """Split *hosts* into isolated groups; cross-group traffic drops."""
        mapping: dict[str, int] = {}
        for gid, members in enumerate(groups):
            for host in members:
                mapping[host] = gid
        self._partition = mapping
        self._routes.clear()

    def heal(self) -> None:
        self._partition = None
        self._routes.clear()

    # -- link degradation (chaos) ----------------------------------------
    def degrade_link(self, src_host: str, dst_host: str, *,
                     latency_factor: Optional[float] = None,
                     bandwidth_factor: Optional[float] = None,
                     loss: Optional[float] = None,
                     duplicate: Optional[float] = None) -> LinkFault:
        """Install (or amend) a fault on the directed ``src_host`` ->
        ``dst_host`` link; ``"*"`` is a wildcard host. Unspecified fields
        keep their current value for the pair. Loopback traffic (same
        host) is never affected."""
        key = (src_host, dst_host)
        cur = self._link_faults.get(key, LinkFault())
        fault = LinkFault(
            latency_factor=cur.latency_factor if latency_factor is None
            else latency_factor,
            bandwidth_factor=cur.bandwidth_factor if bandwidth_factor is None
            else bandwidth_factor,
            loss=cur.loss if loss is None else loss,
            duplicate=cur.duplicate if duplicate is None else duplicate,
        )
        self._link_faults[key] = fault
        self._routes.clear()
        return fault

    def restore_link(self, src_host: str, dst_host: str) -> None:
        self._link_faults.pop((src_host, dst_host), None)
        self._routes.clear()

    def _fault_for(self, src_host: str, dst_host: str) -> Optional[LinkFault]:
        if not self._link_faults or src_host == dst_host:
            return None
        for key in ((src_host, dst_host), (src_host, "*"),
                    ("*", dst_host), ("*", "*")):
            fault = self._link_faults.get(key)
            if fault is not None:
                return fault
        return None

    def _chaos_rng(self):
        if self.streams is None:  # pragma: no cover - chaos needs streams
            raise RuntimeError("probabilistic link faults need a Network "
                               "built with RandomStreams (Cluster does this)")
        return self.streams.stream(CHAOS_STREAM)

    # -- transmission ----------------------------------------------------
    def _route_for(self, key: tuple, src: str, dst: str) -> tuple:
        """Resolve, cache, and return the route tuple for one pair."""
        if dst not in self._hooks:
            raise KeyError(f"unknown endpoint {dst!r}")
        hosts = self._hosts
        hs = hosts.get(src, src)
        hd = hosts.get(dst, dst)
        part = self._partition
        if src in self._down or dst in self._down:
            route = _DROP
        elif (part is not None and hs != hd
                and part.get(hs, -1) != part.get(hd, -2)):
            route = _DROP
        elif hs == hd:
            route = (self.loopback_latency, self.loopback_bandwidth, 0.0, 0.0)
        else:
            fault = self._fault_for(hs, hd)
            if fault is None:
                route = (self.latency, self.bandwidth, 0.0, 0.0)
            else:
                # Bake the factors in; delay stays `lat + size / bw`, the
                # exact arithmetic the uncached path used (bit-identical
                # delivery times are load-bearing for the trace pin).
                route = (self.latency * fault.latency_factor,
                         self.bandwidth * fault.bandwidth_factor,
                         fault.loss, fault.duplicate)
        self._routes[key] = route
        return route

    def send(self, src: str, dst: str, payload: Any, size: int = 128) -> None:
        """Fire-and-forget transmit; delivery is FIFO per (src, dst) pair."""
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            route = self._route_for(key, src, dst)
        if route is _DROP:
            return
        lat, bw, loss, dup = route
        duplicate = False
        if loss or dup:
            rng = self._chaos_rng()
            if loss and rng.random() < loss:
                return
            duplicate = dup > 0.0 and rng.random() < dup
        delay = lat + size / bw
        sim = self.sim
        now = sim.now
        deliver_at = now + delay
        last = self._last_delivery.get(key, 0.0)
        if last > deliver_at:
            deliver_at = last
        self._last_delivery[key] = deliver_at
        # Inlined _Delivery.__init__ — two allocations per RPC (request +
        # response) make this constructor's frame measurable.
        ev = _Delivery.__new__(_Delivery)
        ev.sim = sim
        ev.callbacks = [self._deliver_cb]
        ev._value = None
        ev._ok = True
        ev._used = False
        ev.src = src
        ev.dst = dst
        ev.payload = payload
        ev.size = size
        ev.sent_at = now
        # deliver_at is strictly in the future (delay > 0 and the FIFO
        # clamp only moves it later), so stage it for the heap directly.
        sim._eid = eid = sim._eid + 1
        sim._staged.append((deliver_at, eid, ev))
        if duplicate:
            # The copy arrives a link-delay later, out of FIFO order —
            # receivers must tolerate it (at-least-once delivery).
            sim._eid = eid = sim._eid + 1
            sim._staged.append((deliver_at + delay, eid, _Delivery(
                sim, src, dst, payload, size, now, self._deliver_cb)))

    def _deliver(self, ev: "_Delivery") -> None:
        # Re-check reachability (the route, as in send()) at delivery time:
        # a crash mid-flight or a later partition still drops the message.
        if self._down or self._partition is not None:
            key = (ev.src, ev.dst)
            if (self._routes.get(key) or self._route_for(key, *key)) is _DROP:
                return
        self._hooks[ev.dst](ev)
