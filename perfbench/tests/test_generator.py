"""The input generator is a pure function of the seed."""

import pytest

from perfbench.workloads import (BY_NAME, PHASES, TREE, WORKLOADS,
                                 _zipf_counts, deployment_kwargs, generate)
from repro.workloads.treegen import tree_dirs


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_inputs_other_seed_other_inputs(w):
    a, b, c = generate(w, 7), generate(w, 7), generate(w, 8)
    assert a.paths == b.paths and a.scaffold == b.scaffold
    assert a.paths != c.paths
    assert a.scaffold == c.scaffold == tree_dirs(TREE)


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_every_std_phase_has_a_thousand_ops_and_unique_items(w):
    inputs = generate(w, 1)
    procs, items = w.std
    for phase in PHASES:
        assert len(inputs.paths[phase]) == procs
        assert inputs.ops(phase) >= 1000
    for phase in ("dir_create", "file_create"):
        created = [p for own in inputs.paths[phase] for p in own]
        assert len(set(created)) == len(created) == procs * items
        assert all(p.rsplit("/", 1)[0] in inputs.scaffold for p in created)
    # Removal and (non-Zipf) stat touch exactly what was created.
    assert inputs.paths["dir_remove"] == inputs.paths["dir_create"]
    if not w.stat_draws:
        for own, stats in zip(inputs.paths["file_create"],
                              inputs.paths["file_stat"]):
            assert sorted(own) == sorted(stats)


def test_placement_is_balanced_over_the_tree():
    inputs = generate(BY_NAME["paper-sat"], 3)
    per_dir = {}
    for own in inputs.paths["file_create"]:
        for path in own:
            d = path.rsplit("/", 1)[0]
            per_dir[d] = per_dir.get(d, 0) + 1
    assert len(per_dir) == TREE.n_dirs
    assert max(per_dir.values()) - min(per_dir.values()) <= 1


def test_zipf_draws_have_a_fixed_popularity_profile():
    w = BY_NAME["hotread-cached"]
    procs, items = w.std
    counts = _zipf_counts(procs * items, procs * items * w.stat_draws)
    assert sum(counts) == procs * items * w.stat_draws
    assert counts == sorted(counts, reverse=True)
    assert counts[0] >= 1.9 * counts[1]            # 1/rank
    for seed in (1, 2):
        stats = generate(w, seed).paths["file_stat"]
        assert all(len(s) == items * w.stat_draws for s in stats)
        freq = {}
        for path in (p for own in stats for p in own):
            freq[path] = freq.get(path, 0) + 1
        assert sorted(freq.values(), reverse=True) \
            == [c for c in counts if c]


def test_deployment_flags_match_the_workload():
    assert deployment_kwargs(BY_NAME["sharded-lat"])["n_shards"] == 4
    assert deployment_kwargs(BY_NAME["async-lat"])["awrite"].enabled
    hot = deployment_kwargs(BY_NAME["hotread-cached"])
    assert hot["cache"].enabled and hot["resolve"].enabled
    assert hot["cache"].capacity * 16 == 64 * 16
    assert "cache" not in deployment_kwargs(BY_NAME["failover"])
