"""Structured per-op trace bus shared by every service endpoint.

Each request served through the :class:`~repro.svc.kernel.Service` kernel
publishes one :class:`OpTrace` — when it arrived, when it finished, and
whether it succeeded — tagged by deployment, endpoint and method. The bus
aggregates the service-time distribution into a
:class:`~repro.sim.stats.LatencyRecorder` keyed
``deployment/endpoint.method``, which is what makes the
paper's cross-deployment comparisons (Figs. 7/8) apples-to-apples: every
server stack reports the same metrics through the same pipe.

Recording is pure bookkeeping (no simulator events), so attaching a bus
never perturbs the simulation: a run with tracing on is event-for-event
identical to one with tracing off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.stats import Counter, LatencyRecorder


@dataclass(frozen=True)
class OpTrace:
    """One served request, as published on the bus."""

    deployment: str
    endpoint: str
    method: str
    arrive: float              # request reached the endpoint
    start: float               # service began (== arrive at every publisher)
    end: float                 # response sent (or error marshalled)
    ok: bool
    src: str = ""              # caller endpoint
    retries: int = 0           # client-side: attempts beyond the first
    shard: int = 0             # metadata shard serving/issuing the op

    @property
    def service(self) -> float:
        return self.end - self.start

    @property
    def key(self) -> str:
        return f"{self.deployment}/{self.endpoint}.{self.method}"


class TraceBus:
    """Aggregating sink for :class:`OpTrace` events.

    By default only aggregates (counts + latency recorders) are kept;
    ``keep_events=True`` additionally retains the raw event list, which the
    determinism tests compare byte-for-byte and ``repro trace`` can dump.
    """

    def __init__(self, keep_events: bool = False):
        self.ops = Counter()            # key -> completions (ok + error)
        self.errors = Counter()         # key -> failed completions
        self.retries = Counter()        # key -> client retry attempts
        self.expired = Counter()        # key -> deadline-expired drops/cancels
        # Batcher occupancy (group-commit pipelines): per-batcher flush
        # count, items covered, and queue depth left behind at each flush
        # — mean fill = items/flushes, mean residual depth = depth/flushes.
        self.batch_flushes = Counter()  # key -> flushes
        self.batch_items = Counter()    # key -> items summed over flushes
        self.batch_depth = Counter()    # key -> queue depth at flush end
        self.service = LatencyRecorder()
        self.events: Optional[List[OpTrace]] = [] if keep_events else None
        self.shard_of: Dict[str, int] = {}  # key -> shard (constant per endpoint)
        # Rolling-window per-shard op rates (elastic autoscaler signal):
        # off by default — the hot path pays one is-None test.
        self._shard_win: Optional[float] = None
        self._shard_events: Dict[Tuple[str, int], deque] = {}

    # -- recording ---------------------------------------------------------
    def record(self, ev: OpTrace, key: Optional[str] = None) -> None:
        """Publish one op. ``key`` lets hot callers pass the (interned)
        ``deployment/endpoint.method`` label instead of re-formatting it
        per op; when omitted it is derived from the event."""
        if key is None:
            key = ev.key
        self.ops.inc(key)
        if not ev.ok:
            self.errors.inc(key)
        if ev.retries:
            self.retries.inc(key, ev.retries)
        if ev.shard:
            self.shard_of[key] = ev.shard
        if self._shard_win is not None:
            self._shard_note(ev)
        self.service.record(key, ev.service)
        if self.events is not None:
            self.events.append(ev)

    def mark(self, deployment: str, endpoint: str, method: str,
             now: float, ok: bool = True) -> None:
        """Record a zero-duration counter event (e.g. a cache hit): shows
        up in the ``ops`` column of the table with no latency content."""
        self.record(OpTrace(deployment, endpoint, method, now, now, now, ok))

    def mark_expired(self, deployment: str, endpoint: str,
                     method: str) -> None:
        """Count a request dropped (or cancelled mid-service) because its
        propagated deadline passed. Expired requests are shed work — they
        are *not* completions, so they don't touch ``ops``/``errors``."""
        self.expired.inc(f"{deployment}/{endpoint}.{method}")

    def mark_batch(self, deployment: str, endpoint: str,
                   fill: int, depth: int) -> None:
        """Record one group-commit flush of a :class:`~repro.svc.batch.
        Batcher`: ``fill`` items covered, ``depth`` items still queued
        when the flush completed. Pure bookkeeping (no simulator
        events), same discipline as every other mark."""
        key = f"{deployment}/{endpoint}"
        self.batch_flushes.inc(key)
        self.batch_items.inc(key, fill)
        self.batch_depth.inc(key, depth)

    # -- windowed per-shard rates -------------------------------------------
    def enable_shard_window(self, window: float) -> None:
        """Start keeping rolling-window per-``(deployment, shard)`` op
        timestamps so :meth:`shard_window_rates` can answer "how hot is
        each shard *right now*" — the elastic autoscaler's input signal.
        Counters-only bookkeeping (no simulator events)."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._shard_win = float(window)

    def _shard_note(self, ev: OpTrace) -> None:
        dq = self._shard_events.get((ev.deployment, ev.shard))
        if dq is None:
            dq = self._shard_events[(ev.deployment, ev.shard)] = deque()
        dq.append(ev.end)
        lo = ev.end - self._shard_win
        while dq and dq[0] < lo:
            dq.popleft()

    def shard_window_rates(self, now: Optional[float] = None,
                           deployment: Optional[str] = None,
                           window: Optional[float] = None
                           ) -> Dict[int, float]:
        """Ops/sec per shard over the trailing window, at ``now`` (default:
        each stream's latest completion). ``deployment`` filters the
        streams (e.g. ``"zk"``); without it, same-shard streams sum.
        ``window`` narrows the averaging span below the retention window
        set by :meth:`enable_shard_window` (it cannot widen it — older
        timestamps are already gone)."""
        if self._shard_win is None:
            return {}
        w = self._shard_win if window is None \
            else max(1e-9, min(window, self._shard_win))
        out: Dict[int, float] = {}
        for (dep, shard), dq in self._shard_events.items():
            if deployment is not None and dep != deployment:
                continue
            if not dq:
                continue
            t = now if now is not None else dq[-1]
            lo = t - w
            n = sum(1 for x in dq if lo <= x <= t)
            out[shard] = out.get(shard, 0.0) + n / w
        return out

    # -- export ------------------------------------------------------------
    def keys(self) -> List[str]:
        # Union with the shed-work counter: an endpoint whose requests all
        # expired still deserves a row.
        return sorted(set(self.ops.as_dict()) | set(self.expired.as_dict()))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for key in self.keys():
            svc = self.service.summary(key)
            out[key] = {
                "ops": self.ops.get(key),
                "errors": self.errors.get(key),
                "retries": self.retries.get(key),
                "expired": self.expired.get(key),
                "shard": self.shard_of.get(key, 0),
                "service_mean": svc.mean if svc else 0.0,
                "service_p95": svc.p95 if svc else 0.0,
            }
        return out

    def batch_occupancy(self) -> Dict[str, Dict[str, float]]:
        """Per-batcher group-commit occupancy: flushes, mean batch fill
        (items per flush) and mean residual queue depth at flush end.
        Keys are ``deployment/batcher-name``."""
        out: Dict[str, Dict[str, float]] = {}
        for key, flushes in sorted(self.batch_flushes.as_dict().items()):
            items = self.batch_items.get(key)
            depth = self.batch_depth.get(key)
            out[key] = {
                "flushes": flushes,
                "items": items,
                "fill_mean": items / flushes if flushes else 0.0,
                "depth_mean": depth / flushes if flushes else 0.0,
            }
        return out

    def table(self) -> str:
        """Human-readable per-endpoint/method metric table."""
        header = (f"{'endpoint.method':<42} {'ops':>7} {'err':>5} "
                  f"{'retry':>5} {'svc(ms)':>9} "
                  f"{'p95(ms)':>9}")
        lines = [header, "-" * len(header)]
        for key, row in self.as_dict().items():
            lines.append(
                f"{key:<42} {row['ops']:>7} {row['errors']:>5} "
                f"{row['retries']:>5} {row['service_mean'] * 1e3:>9.3f} "
                f"{row['service_p95'] * 1e3:>9.3f}")
        occupancy = self.batch_occupancy()
        if occupancy:
            bheader = (f"{'batcher':<42} {'flushes':>8} {'items':>8} "
                       f"{'fill(mean)':>11} {'depth(mean)':>12}")
            lines += ["", bheader, "-" * len(bheader)]
            for key, row in occupancy.items():
                lines.append(
                    f"{key:<42} {row['flushes']:>8} {row['items']:>8} "
                    f"{row['fill_mean']:>11.2f} {row['depth_mean']:>12.2f}")
        return "\n".join(lines)


class NullBus(TraceBus):
    """Discarding sink — the default for services built without a bus, so
    untraced benchmark sweeps pay no aggregation cost and hold no samples."""

    def __init__(self):
        super().__init__()

    def record(self, ev: OpTrace,  # noqa: ARG002 - interface
               key: Optional[str] = None) -> None:
        return

    def mark_expired(self, deployment: str, endpoint: str,  # noqa: ARG002
                     method: str) -> None:
        return

    def mark_batch(self, deployment: str, endpoint: str,  # noqa: ARG002
                   fill: int, depth: int) -> None:
        return


#: Process-wide discarding sink shared by every unwired Service.
NULL_BUS = NullBus()
