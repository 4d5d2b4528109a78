"""Host-clock measurement that survives a noisy sandbox.

The sandbox's speed moves by tens of percent within seconds (identical
8x125 runs measured 2.1-4.2 s), at every time scale, so neither a
min-of-repeats nor a calibration loop run once per process resolves a host
time to better than ~20 %. What does work is calibrating *inside* the
measurement: the timed pass stops every few ops to time a small frozen
reference loop (heap, generators, dict — the simulator's own instruction
mix), and each slice of work between two stops is rescaled by the local
speed those two stops saw. Twelve repeats of one run spread 13 % raw and
5.5 % rescaled.

A host time is therefore reported in *reference seconds*: the time the
work takes on a machine where :func:`reference_loop` takes
:data:`REFERENCE_S`. On such a machine it is plain wall-clock time.

The reference loop is part of the benchmark's definition: changing it
redefines ``wall_s`` and ``setup_s``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import List, Optional, Tuple

#: What :func:`reference_loop` takes on the sandbox when it is quiet.
REFERENCE_S = 450e-6


def reference_loop() -> int:
    """A fixed ~0.5 ms discrete-event loop: 20 generator 'processes' of 40
    steps each, scheduled through a heap and recorded in a dict."""
    heap: list = []
    seen = {}

    def process(steps: int):
        for step in range(steps):
            yield step

    for pid in range(20):
        heappush(heap, (0.0, pid, process(40)))
    while heap:
        when, pid, gen = heappop(heap)
        try:
            step = next(gen)
        except StopIteration:
            continue
        seen[(pid, step)] = when
        heappush(heap, (when + (step * 7 % 13) * 0.1, pid, gen))
    return len(seen)


def speed_sample(runs: int = 1) -> float:
    """Best time of ``runs`` runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(runs):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


class Stopwatch:
    """Times work in slices bracketed by reference-loop runs.

    ``start()`` opens a slice, ``mark()`` closes it and opens the next,
    ``stop()`` closes the last one. The reference runs themselves are not
    counted as work.
    """

    def __init__(self) -> None:
        self.slices: List[Tuple[float, float, float]] = []  # work, ref, ref
        self._opened_at: Optional[float] = None
        self._ref = 0.0

    def start(self) -> None:
        self._ref = speed_sample()
        self._opened_at = perf_counter()

    def mark(self) -> None:
        closed_at = perf_counter()
        ref = speed_sample()
        self.slices.append((closed_at - self._opened_at, self._ref, ref))
        self._ref = ref
        self._opened_at = perf_counter()

    def stop(self) -> None:
        self.mark()
        self._opened_at = None

    @property
    def raw_s(self) -> float:
        return sum(work for work, _, _ in self.slices)

    @property
    def reference_s(self) -> float:
        """Work rescaled slice by slice to the reference speed."""
        return sum(work * REFERENCE_S / ((before + after) / 2.0)
                   for work, before, after in self.slices)
