"""The autoscaler's decision policy, driven directly (no simulator).

``_decide`` is pure apart from the hysteresis streaks and cooldown
clocks, so the no-flap guarantee and the placement rules are checked
here as plain function calls on synthetic load signals (all ops/sec).
"""

import pytest

from repro.mds import ShardMap, ShardMapRegistry
from repro.mds.autoscaler import Autoscaler
from repro.models.params import ElasticParams


@pytest.fixture(autouse=True)
def merge_below_five(monkeypatch):
    """These signals unpin a subtree below 5 ops/s (the class says 4)."""
    monkeypatch.setattr(ElasticParams, "merge_min_ops", 5)


class _FakeMigrator:
    sim = None


def make_scaler(registry=None, **overrides):
    params = ElasticParams.elastic_on(
        cooldown=0.5, moves_per_tick=8, min_window_ops=10, **overrides)
    reg = registry or ShardMapRegistry(ShardMap(4))
    return Autoscaler(reg, _FakeMigrator(), [], params=params)


def dirs_on_shard(shard, count, n_shards=4):
    ref = ShardMap(n_shards)
    out = []
    i = 0
    while len(out) < count:
        d = f"/d{i}"
        if ref.child_shard(d) == shard:
            out.append(d)
        i += 1
    return out


def test_oscillating_load_never_flaps():
    """A shard that is hot only on alternating ticks never satisfies the
    consecutive-tick hysteresis, so the map never moves."""
    a = make_scaler()
    hot_dirs = {d: 1000.0 for d in dirs_on_shard(0, 4)}
    hot = {0: 4000.0, 1: 500.0, 2: 500.0, 3: 500.0}
    calm = {k: 1000.0 for k in range(4)}
    for tick in range(10):
        load = hot if tick % 2 == 0 else calm
        assert a._decide(load, hot_dirs, now=tick * 0.1) == []


def test_sustained_heat_acts_once_then_waits_for_fresh_windows():
    a = make_scaler()
    hot_dirs = {d: 1000.0 for d in dirs_on_shard(0, 8)}
    load = {0: 8000.0, 1: 0.0, 2: 0.0, 3: 0.0}
    assert a._decide(load, hot_dirs, now=0.0) == []      # streak = 1
    actions = a._decide(load, hot_dirs, now=0.1)         # streak = 2: act
    assert actions and all(act == "split" for act, _r, _d in actions)
    # Acting reset the streak AND armed the per-shard act-then-listen
    # gate: the same stale-looking signal does not trigger more moves.
    assert a._decide(load, hot_dirs, now=0.2) == []
    assert a._decide(load, hot_dirs, now=0.3) == []


def test_split_batch_spreads_over_destinations_and_keeps_a_share():
    a = make_scaler()
    dirs = dirs_on_shard(0, 8)
    hot_dirs = {d: 1000.0 for d in dirs}
    load = {0: 8000.0, 1: 0.0, 2: 0.0, 3: 0.0}
    a._decide(load, hot_dirs, now=0.0)
    actions = a._decide(load, hot_dirs, now=0.1)
    # The source keeps its proportional share (8 dirs / 4 shards = 2)...
    assert len(actions) == 6
    # ...and the batch round-robins the destinations instead of piling
    # onto whichever shard measured lightest.
    dsts = [dst for _a, _r, dst in actions]
    assert sorted(dsts) == [1, 1, 2, 2, 3, 3]
    assert 0 not in dsts


def test_quiet_window_resets_streaks():
    a = make_scaler()
    hot_dirs = {d: 1000.0 for d in dirs_on_shard(0, 4)}
    load = {0: 4000.0, 1: 0.0, 2: 0.0, 3: 0.0}
    assert a._decide(load, hot_dirs, now=0.0) == []      # streak = 1
    idle = {k: 1.0 for k in range(4)}                    # < min_window_ops
    assert a._decide(idle, {}, now=0.1) == []            # lull: reset
    assert a._decide(load, hot_dirs, now=0.2) == []      # streak = 1 again
    assert a._decide(load, hot_dirs, now=0.3) != []


def test_idle_pin_merges_after_hysteresis():
    reg = ShardMapRegistry(ShardMap(4))
    reg.install(reg.current.split("/cold", 2), "pin")
    a = make_scaler(registry=reg)
    # Enough total traffic to clear min_window_ops, none of it on /cold.
    busy = {d: 500.0 for d in dirs_on_shard(1, 4)}
    load = {0: 500.0, 1: 1500.0, 2: 0.0, 3: 0.0}
    assert a._decide(load, busy, now=0.0) == []          # cold streak = 1
    actions = a._decide(load, busy, now=0.1)             # cold streak = 2
    assert ("merge", "/cold", -1) in actions
    # An active pin is never merged.
    a2 = make_scaler(registry=reg)
    busy_cold = dict(busy)
    busy_cold["/cold/sub"] = 800.0
    for tick in range(4):
        acts = a2._decide(load, busy_cold, now=tick * 0.1)
        assert all(root != "/cold" for _a, root, _d in acts)
