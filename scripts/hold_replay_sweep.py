"""Count double applies over random schedules of the hold-equivalence replay.

Draws schedules from the ranges of the hypothesis strategies in
``tests/zk/test_commit_hold_equivalence.py`` (with a seeded ``random``,
so a count is reproducible), runs each on the parked-hold ensemble with
failure detection on and off in turn, and counts the runs that end in
``AssertionError: inconsistent replica`` — a replica applying one zxid
twice. Run from the repository root:

    PYTHONPATH=src python scripts/hold_replay_sweep.py [N] [SEED] [KINDS]

``KINDS`` is a comma list of fault kinds to draw from (default
``elect,crash``).
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.models.params import ZKParams  # noqa: E402
from tests.zk.test_commit_hold_equivalence import (  # noqa: E402
    N_SERVERS, Parked, replay)


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
    failed = []
    for i in range(n):
        sched = schedule(rng, kinds)
        params = ZKParams(failure_detection=bool(i % 2))
        try:
            log = replay(Parked, sched, params)
        except AssertionError as exc:
            log = [(None, "inconsistent replica", str(exc))]
        if log and log[-1][1] == "inconsistent replica":
            failed.append((i, sched, params.failure_detection))
    for i, sched, detect in failed:
        print(i, detect, sched)
    print(f"{len(failed)} of {n} schedules applied a zxid twice")


if __name__ == "__main__":
    main(*(int(a) if a.isdigit() else a for a in sys.argv[1:]))
