"""Check read-your-writes holds over random schedules of the hold replay.

Draws schedules from the ranges of the hypothesis strategies in
``tests/zk/test_commit_hold_equivalence.py`` (with a seeded ``random``,
so a count is reproducible), runs each on its probed ensemble with
failure detection on and off in turn, and counts two faults: a run that
ends in ``AssertionError: inconsistent replica`` (a replica applying one
zxid twice), and a hold that returns its reply before its follower has
applied the write while still following. Holds released late or never
are listed too. Run from the repository root:

    PYTHONPATH=src python scripts/hold_replay_sweep.py [N] [SEED] [KINDS]

``KINDS`` is a comma list of fault kinds to draw from (default
``elect,crash``). Exits 1 when any schedule shows either fault or a hold
off its oracle's instant, else 0.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.models.params import ZKParams  # noqa: E402
from tests.zk.test_commit_hold_equivalence import (  # noqa: E402
    N_SERVERS, replay, violations)


def schedule(rng, kinds):
    requests = [(rng.choice((0, 0, 0, 1, 3, 11)), rng.randrange(N_SERVERS))
                for _ in range(rng.randint(1, 10))]
    hogs = [(rng.randint(1, N_SERVERS - 1), rng.randint(0, 64),
             rng.randint(1, 96)) for _ in range(rng.randint(0, 4))]
    faults = [(rng.choice(kinds), rng.randint(1, N_SERVERS - 1),
               rng.randint(8, 120), rng.randint(1, 40))
              for _ in range(rng.randint(0, 2))]
    return requests, hogs, faults


def main(n=1500, seed=0, kinds="elect,crash"):
    rng = random.Random(seed)
    kinds = tuple(kinds.split(","))
    doubled, early, off = [], [], []
    for i in range(n):
        sched = schedule(rng, kinds)
        params = ZKParams(failure_detection=bool(i % 2))
        try:
            _, servers = replay(sched, params)
        except AssertionError as exc:
            if "inconsistent replica" not in str(exc):
                raise
            doubled.append((i, params.failure_detection, sched))
            continue
        found = violations(servers)
        if found:
            bad = early if any(v[2] == "early" for v in found) else off
            bad.append((i, params.failure_detection, sched, found))
    for row in doubled + early + off:
        print(*row)
    print(f"{len(doubled)} of {n} schedules applied a zxid twice")
    print(f"{len(early)} of {n} schedules released a reply before its "
          f"follower applied the write")
    print(f"{len(off)} of {n} schedules released a hold late or never")
    return 1 if doubled or early or off else 0


if __name__ == "__main__":
    sys.exit(main(*(int(a) if a.isdigit() else a for a in sys.argv[1:])))
