"""Epoch-versioned shard map: immutable per epoch, diffable, registered."""

import pytest

from repro.mds import Migration, ShardMap, ShardMapRegistry


def test_epoch_starts_at_zero_and_advances_per_derivation():
    m = ShardMap(4)
    assert m.epoch == 0
    m1 = m.split("/hot", 2)
    assert m1.epoch == 1
    m2 = m1.merge("/hot")
    assert m2.epoch == 2
    # Derivations never mutate the parent.
    assert m.epoch == 0 and m.subtrees == {}
    assert m1.subtrees == {"/hot": 2}


def test_split_repin_and_merge_rules():
    m = ShardMap(4).split("/hot", 2)
    with pytest.raises(ValueError):
        m.split("/hot", 2)               # already pinned there
    repinned = m.split("/hot", 3)        # re-pinning elsewhere is a move
    assert repinned.subtrees == {"/hot": 3}
    with pytest.raises(ValueError):
        ShardMap(4).merge("/nope")       # nothing pinned
    back = repinned.merge("/hot")
    assert back.subtrees == {}
    # Last pin gone: placement is pure parent-hash again.
    assert back.child_shard("/hot") == ShardMap(4).child_shard("/hot")


def test_diff_names_the_changed_roots():
    m = ShardMap(4)
    m1 = m.split("/hot", 2)
    assert m.diff(m1) == ["/hot"]
    m2 = m1.split("/warm", 1)
    assert sorted(m1.diff(m2)) == ["/warm"]
    assert sorted(m.diff(m2)) == ["/hot", "/warm"]
    assert m.diff(m) == []


def test_registry_installs_are_epoch_disciplined():
    reg = ShardMapRegistry(ShardMap(4))
    assert reg.epoch == 0
    new = reg.current.split("/hot", 2)
    roots = reg.install(new, "split /hot -> s2")
    assert roots == ["/hot"] and reg.epoch == 1
    with pytest.raises(ValueError):
        reg.install(new, "replay")       # epoch must advance by exactly 1
    assert [e for e, _m, _r in reg.history] == [0, 1]
    assert [m.subtrees for _e, m, _r in reg.history] == [{}, {"/hot": 2}]


def test_registry_routing_changed_is_per_path():
    reg = ShardMapRegistry(ShardMap(4))
    reg.install(reg.current.split("/hot", 2), "split")
    assert reg.routing_changed(0, "/hot/f")
    untouched = "/elsewhere/f"
    assert not reg.routing_changed(0, untouched)
    assert not reg.routing_changed(1, "/hot/f")   # current epoch
    # Unknown epochs are conservatively treated as changed.
    assert reg.routing_changed(99, untouched)


def test_registry_blocking_migration_covers_the_frozen_subtree():
    reg = ShardMapRegistry(ShardMap(4))

    class _Ev:
        triggered = False
    mig = Migration("/hot", src=0, dst=2, from_epoch=0, done=_Ev())
    reg.begin_migration(mig)
    assert reg.blocking_migration("/hot/f") is mig
    assert reg.blocking_migration("/hot") is mig
    assert reg.blocking_migration("/cold/f") is None
    mig.state = "done"                   # cutover: writes flow again
    assert reg.blocking_migration("/hot/f") is None
    reg.end_migration(mig)
    assert reg.migrations == [] and reg.completed == [mig]
