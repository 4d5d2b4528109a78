"""Declarative fault schedules.

A schedule is an ordered list of :class:`FaultSpec` events, each naming a
*symbolic* target (``"zk:0"``, ``"zk:leader"``, ``"meta:1"``, a node name,
...). Symbols are resolved only when the schedule is replayed, so the same
schedule can be thrown at a DUFS deployment, a Lustre filesystem and a
PVFS instance and the outcomes compared — the point of the reliability
experiments.

:class:`RandomChaos` draws reproducible crash/recover schedules from the
simulation's named random streams: the same seed always emits the same
schedule, never perturbing any other stream's draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..sim.random import RandomStreams

#: Event kinds understood by :class:`~repro.chaos.engine.ChaosEngine`.
KINDS = ("crash", "recover", "partition", "heal", "degrade_link",
         "restore_link", "drop", "slow_disk", "restore_disk",
         "backend_down", "backend_up", "failover")


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault event.

    ``at`` is seconds relative to engine start; ``target`` holds the
    symbolic operand(s) — one name for node events, a ``(src, dst)`` host
    pair for link events (``"*"`` wildcards allowed), nothing for
    ``heal``. The remaining fields parameterize link degradation
    (``factor``/``bandwidth`` multiply latency / divide bandwidth,
    ``probability``/``duplicate`` are per-message chances) and
    ``slow_disk`` (``factor`` stretches every disk transaction).
    """

    at: float
    kind: str
    target: Tuple[str, ...] = ()
    factor: float = 1.0
    bandwidth: float = 1.0
    probability: float = 0.0
    duplicate: float = 0.0
    groups: Tuple[Tuple[str, ...], ...] = ()

    def describe(self) -> str:
        parts = [f"t+{self.at:.3f}s {self.kind}"]
        if self.target:
            parts.append(",".join(self.target))
        if self.groups:
            parts.append("|".join("+".join(g) for g in self.groups))
        if self.kind in ("degrade_link", "slow_disk") and self.factor != 1.0:
            parts.append(f"x{self.factor:g}")
        if self.kind == "drop":
            parts.append(f"loss={self.probability:g}")
            if self.duplicate:
                parts.append(f"dup={self.duplicate:g}")
        return " ".join(parts)


class ChaosSchedule:
    """Builder for an ordered fault timeline (methods chain)."""

    def __init__(self, events: Optional[Iterable[FaultSpec]] = None):
        self._events: List[FaultSpec] = list(events or ())

    def _add(self, spec: FaultSpec) -> "ChaosSchedule":
        if spec.kind not in KINDS:
            raise ValueError(f"unknown fault kind {spec.kind!r}")
        if spec.at < 0:
            raise ValueError(f"negative event time {spec.at}")
        self._events.append(spec)
        return self

    # -- node faults -----------------------------------------------------
    def crash(self, at: float, target: str) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "crash", (target,)))

    def recover(self, at: float, target: str) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "recover", (target,)))

    def slow_disk(self, at: float, target: str,
                  factor: float = 10.0) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "slow_disk", (target,), factor=factor))

    def restore_disk(self, at: float, target: str) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "restore_disk", (target,)))

    # -- network faults --------------------------------------------------
    def partition(self, at: float,
                  groups: Sequence[Sequence[str]]) -> "ChaosSchedule":
        return self._add(FaultSpec(
            at, "partition", (), groups=tuple(tuple(g) for g in groups)))

    def heal(self, at: float) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "heal"))

    def degrade_link(self, at: float, src: str = "*", dst: str = "*",
                     factor: float = 1.0,
                     bandwidth: float = 1.0) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "degrade_link", (src, dst),
                                   factor=factor, bandwidth=bandwidth))

    def drop(self, at: float, src: str = "*", dst: str = "*",
             probability: float = 0.0,
             duplicate: float = 0.0) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "drop", (src, dst),
                                   probability=probability,
                                   duplicate=duplicate))

    def restore_link(self, at: float, src: str = "*",
                     dst: str = "*") -> "ChaosSchedule":
        return self._add(FaultSpec(at, "restore_link", (src, dst)))

    # -- service faults --------------------------------------------------
    def backend_down(self, at: float, target: str) -> "ChaosSchedule":
        """DUFS degraded mode: the named back-end index goes dark."""
        return self._add(FaultSpec(at, "backend_down", (target,)))

    def backend_up(self, at: float, target: str) -> "ChaosSchedule":
        return self._add(FaultSpec(at, "backend_up", (target,)))

    def failover(self, at: float, target: str = "fs") -> "ChaosSchedule":
        """Active/standby takeover of the resolved filesystem (Lustre)."""
        return self._add(FaultSpec(at, "failover", (target,)))

    # -- access ----------------------------------------------------------
    def events(self) -> List[FaultSpec]:
        """Events in replay order (stable sort by time)."""
        return sorted(self._events, key=lambda s: s.at)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.events())

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.events())


class RandomChaos:
    """Reproducible crash/recover schedule generator.

    Crash arrivals are Poisson (``rate`` per second over ``duration``);
    each victim is drawn uniformly from ``targets`` and stays down for an
    exponential time with mean ``mean_downtime``. A strict majority of
    the targets is always alive, so a ZooKeeper ensemble under this
    generator retains quorum (the paper's availability claim is about
    minority failures).

    All draws come from one named stream of a :class:`RandomStreams`, so
    the same ``(seed, name)`` always yields the same schedule.
    """

    def __init__(
        self,
        targets: Sequence[str],
        duration: float,
        seed: int = 0,
        rate: float = 0.5,
        mean_downtime: float = 1.0,
        streams: Optional[RandomStreams] = None,
        name: str = "chaos.random",
    ):
        if not targets:
            raise ValueError("need at least one target")
        self.targets = list(targets)
        self.duration = duration
        self.rate = rate
        self.mean_downtime = mean_downtime
        self.max_concurrent_down = max(1, (len(self.targets) - 1) // 2)
        self.streams = streams or RandomStreams(seed)
        self.name = name

    def schedule(self) -> ChaosSchedule:
        rng = self.streams.stream(self.name)
        sched = ChaosSchedule()
        down: dict[str, float] = {}          # target -> recovery time
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= self.duration:
                break
            for victim in [v for v, back in down.items() if back <= t]:
                del down[victim]
            if len(down) >= self.max_concurrent_down:
                continue
            candidates = [x for x in self.targets if x not in down]
            if not candidates:
                continue
            victim = candidates[rng.randrange(len(candidates))]
            downtime = rng.expovariate(1.0 / self.mean_downtime)
            sched.crash(t, victim)
            # Clamp the paired recover into the run window: a crash landing
            # within ``downtime`` of the end must not leave the node
            # permanently down in the generated schedule.
            sched.recover(min(t + downtime, self.duration), victim)
            down[victim] = t + downtime
        return sched
