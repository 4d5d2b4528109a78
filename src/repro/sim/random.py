"""Deterministic named random streams.

Every stochastic decision in the simulation draws from a stream keyed by a
stable name (e.g. ``"lustre.mds.service"``), so adding a new consumer never
perturbs the draws seen by existing ones — runs stay reproducible and
comparable across configurations.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
