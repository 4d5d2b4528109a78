"""Unit tests for the znode tree (no simulation involved)."""

import pytest

from repro.zk.data import ZnodeStore, split_path, validate_path
from repro.zk.errors import (
    BadArgumentsError,
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
)


def make_store_with(*paths):
    store = ZnodeStore()
    zxid = 0
    for p in paths:
        zxid += 1
        store.apply_create(p, b"", zxid, float(zxid))
    return store, zxid


# -- path helpers -----------------------------------------------------------

def test_split_path():
    assert split_path("/a/b/c") == ("/a/b", "c")
    assert split_path("/a") == ("/", "a")


@pytest.mark.parametrize("bad", ["a/b", "/a/", "/a//b", "/a/./b", "/a/../b"])
def test_validate_path_rejects(bad):
    with pytest.raises(BadArgumentsError):
        validate_path(bad)


@pytest.mark.parametrize("good", ["/", "/a", "/a/b", "/a-b_c.d/e"])
def test_validate_path_accepts(good):
    validate_path(good)


# -- basic tree ops -----------------------------------------------------------

def test_root_always_exists():
    store = ZnodeStore()
    assert store.exists("/") is not None
    assert store.get_children("/") == []
    assert len(store) == 1


def test_create_get_roundtrip():
    store, zxid = make_store_with("/x")
    data, stat = store.get("/x")
    assert data == b""
    assert stat.czxid == stat.mzxid == zxid
    assert stat.version == 0


def test_create_updates_parent_stat():
    store, _ = make_store_with("/p")
    before = store.exists("/p")
    store.apply_create("/p/c", b"", 5, 5.0)
    after = store.exists("/p")
    assert after.cversion == before.cversion + 1
    assert after.num_children == 1
    assert after.pzxid == 5


def test_children_sorted():
    store, _ = make_store_with("/d", "/d/b", "/d/a", "/d/c")
    assert store.get_children("/d") == ["a", "b", "c"]


def test_get_missing_raises():
    store = ZnodeStore()
    with pytest.raises(NoNodeError):
        store.get("/nope")
    with pytest.raises(NoNodeError):
        store.get_children("/nope")
    assert store.exists("/nope") is None


def test_check_create_validations():
    store, _ = make_store_with("/a")
    with pytest.raises(NodeExistsError):
        store.check_create("/a")
    with pytest.raises(NoNodeError):
        store.check_create("/missing/child")
    store.check_create("/a/b")  # ok


def test_delete_validations():
    store, _ = make_store_with("/a", "/a/b")
    with pytest.raises(NotEmptyError):
        store.check_delete("/a")
    with pytest.raises(NoNodeError):
        store.check_delete("/zzz")
    with pytest.raises(BadArgumentsError):
        store.check_delete("/")
    store.check_delete("/a/b")  # ok


def test_delete_version_check():
    store, _ = make_store_with("/v")
    store.apply_set_data("/v", b"1", 2, 2.0)
    with pytest.raises(BadVersionError):
        store.check_delete("/v", version=0)
    store.check_delete("/v", version=1)
    store.check_delete("/v", version=-1)


def test_set_data_bumps_version_and_mzxid():
    store, _ = make_store_with("/s")
    store.apply_set_data("/s", b"abc", 7, 3.5)
    data, stat = store.get("/s")
    assert data == b"abc"
    assert stat.version == 1
    assert stat.mzxid == 7
    assert stat.mtime == 3.5
    assert stat.data_length == 3
    # czxid unchanged
    assert stat.czxid != 7


def test_set_version_check():
    store, _ = make_store_with("/s")
    with pytest.raises(BadVersionError):
        store.check_set_data("/s", version=3)
    store.check_set_data("/s", version=0)


def test_delete_updates_parent():
    store, _ = make_store_with("/p", "/p/c")
    store.apply_delete("/p/c", 9)
    stat = store.exists("/p")
    assert stat.num_children == 0
    assert stat.cversion == 2  # one create + one delete
    assert stat.pzxid == 9
    assert len(store) == 2


def test_memory_accounting_grows_and_shrinks():
    store = ZnodeStore()
    base = store.approx_memory_bytes
    store.apply_create("/m", b"x" * 100, 1, 1.0)
    grown = store.approx_memory_bytes
    assert grown > base + 100
    store.apply_delete("/m", 2)
    assert store.approx_memory_bytes == base


def test_memory_accounting_tracks_set_data():
    store, _ = make_store_with("/m")
    before = store.approx_memory_bytes
    store.apply_set_data("/m", b"y" * 50, 2, 2.0)
    assert store.approx_memory_bytes == before + 50


def test_apply_txn_records():
    store = ZnodeStore()
    store.apply(("create", "/t", b"d"), 1, 1.0)
    store.apply(("set", "/t", b"e"), 2, 2.0)
    assert store.get("/t")[0] == b"e"
    store.apply(("multi", (("create", "/u", b""),
                           ("delete", "/t"))), 3, 3.0)
    assert store.exists("/t") is None
    assert store.exists("/u") is not None


def test_apply_inconsistency_is_assertion():
    store = ZnodeStore()
    with pytest.raises(AssertionError):
        store.apply_delete("/ghost", 1)
    with pytest.raises(AssertionError):
        store.apply_set_data("/ghost", b"", 1, 1.0)
    with pytest.raises(AssertionError):
        store.apply_create("/a/b/c", b"", 1, 1.0)  # parent missing


def test_snapshot_roundtrip():
    store, _ = make_store_with("/a", "/a/b", "/c")
    store.apply_set_data("/a/b", b"payload", 10, 4.0)
    store.apply_create("/e", b"", 11, 5.0)
    clone = ZnodeStore.from_snapshot(store.snapshot())
    assert clone.fingerprint() == store.fingerprint()
    assert clone.get("/a/b")[0] == b"payload"
    assert len(clone) == len(store)
    assert clone.approx_memory_bytes == store.approx_memory_bytes


def test_fingerprint_detects_divergence():
    a, _ = make_store_with("/x")
    b, _ = make_store_with("/x")
    assert a.fingerprint() == b.fingerprint()
    b.apply_set_data("/x", b"diff", 5, 5.0)
    assert a.fingerprint() != b.fingerprint()


def test_walk_paths_depth_first():
    store, _ = make_store_with("/a", "/a/b", "/c")
    assert list(store.walk_paths()) == ["/", "/a", "/a/b", "/c"]
