"""Measurement helpers: op counters and latency summaries."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


class Counter:
    """Per-key event counter (ops completed, RPCs sent, ...)."""

    def __init__(self):
        self._counts: Dict[str, int] = defaultdict(int)

    def inc(self, key: str, n: int = 1) -> None:
        self._counts[key] += n

    def get(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


@dataclass
class LatencySummary:
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"n={self.count} mean={self.mean * 1e3:.3f}ms "
                f"p50={self.p50 * 1e3:.3f}ms p99={self.p99 * 1e3:.3f}ms")


def percentile(sorted_xs: Sequence[float], p: float) -> float:
    """Percentile with linear interpolation between closest ranks.

    ``p`` in [0, 1]; ``sorted_xs`` must be non-empty and ascending. On a
    small sample this lands between observations instead of truncating to
    the nearest lower index (the old behaviour made p50 of [1, 2] report 1
    and p99 collapse onto the max for n < 100).
    """
    n = len(sorted_xs)
    if n == 1:
        return sorted_xs[0]
    rank = p * (n - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * frac


class LatencyRecorder:
    """Records per-op latencies keyed by op name; summarizes on demand."""

    def __init__(self):
        self._samples: Dict[str, List[float]] = defaultdict(list)

    def record(self, key: str, latency: float) -> None:
        self._samples[key].append(latency)

    def summary(self, key: str) -> Optional[LatencySummary]:
        xs = self._samples.get(key)
        if not xs:
            return None
        xs = sorted(xs)
        n = len(xs)
        return LatencySummary(n, math.fsum(xs) / n, percentile(xs, 0.50),
                              percentile(xs, 0.95), percentile(xs, 0.99),
                              xs[-1])
