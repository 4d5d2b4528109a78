"""Deterministic path → shard routing (pure function, no I/O)."""

import pytest

from repro.mds import ShardMap, parent_dir


def test_parent_dir():
    assert parent_dir("/a/b/c") == "/a/b"
    assert parent_dir("/a") == "/"
    assert parent_dir("/") == "/"


def test_single_shard_routes_everything_to_zero():
    m = ShardMap(1)
    for p in ("/", "/a", "/a/b", "/deep/x/y/z"):
        assert m.home_shard(p) == 0
        assert m.child_shard(p) == 0


def test_parent_hash_is_deterministic_across_instances():
    a, b = ShardMap(4), ShardMap(4)
    for p in ("/", "/a", "/a/f1", "/a/f2", "/b/sub/file"):
        assert a.home_shard(p) == b.home_shard(p)
        assert a.child_shard(p) == b.child_shard(p)


def test_siblings_share_a_home_shard():
    m = ShardMap(4)
    shards = {m.home_shard(f"/data/f{i}") for i in range(50)}
    assert len(shards) == 1                      # one dir = one quorum
    assert shards == {m.child_shard("/data")}


def test_directories_spread_across_shards():
    m = ShardMap(4)
    shards = {m.child_shard(f"/d{i}") for i in range(64)}
    assert len(shards) == 4                      # unrelated dirs spread


def test_subtree_pinning_longest_prefix_wins():
    m = ShardMap(4, subtrees={"/scratch": 1, "/scratch/hot": 3})
    assert m.strategy == "subtree" and ShardMap(4).strategy == "parent-hash"
    assert m.child_shard("/scratch/a") == 1
    assert m.home_shard("/scratch/a/f") == 1
    assert m.child_shard("/scratch/hot/x") == 3
    # Outside every pin the hash fallback still applies deterministically.
    assert m.child_shard("/other") == ShardMap(4).child_shard("/other")


def test_validation():
    with pytest.raises(ValueError):
        ShardMap(0)
    with pytest.raises(ValueError):
        ShardMap(2, subtrees={"relative": 0})
    with pytest.raises(ValueError):
        ShardMap(2, subtrees={"/a": 5})
