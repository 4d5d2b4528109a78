"""Parameter bundles and the memory model."""

from dataclasses import fields, replace

import pytest

from repro.models.memory import (
    MemoryModel,
    ZK_BASELINE_MB,
    ZNODE_BYTES_PER_MILLION_MB,
)
from repro.models.params import (
    DUFSParams,
    FUSEParams,
    LustreParams,
    PVFSParams,
    SimParams,
    ZKParams,
)


def test_simparams_bundles_all_submodels():
    p = SimParams()
    assert isinstance(p.zk, ZKParams)
    assert isinstance(p.lustre, LustreParams)
    assert isinstance(p.pvfs, PVFSParams)
    assert isinstance(p.fuse, FUSEParams)
    assert isinstance(p.dufs, DUFSParams)
    assert p.node_cores == 8  # dual Xeon E5335


def test_replace_swaps_one_submodel():
    p = SimParams()
    q = replace(p, lustre=LustreParams(dlm_enabled=False))
    assert q.lustre.dlm_enabled is False
    assert p.lustre.dlm_enabled is True  # original untouched
    assert q.zk is p.zk


def test_default_instances_are_independent():
    a, b = SimParams(), SimParams()
    a.lustre.dlm_enabled = False
    assert b.lustre.dlm_enabled is True


def test_session_tracking_is_accepted_and_discarded():
    """perfbench's fail-over spelling still constructs, and builds the
    same params as the call without it: no session layer reads it."""
    spelled = ZKParams(failure_detection=True, session_tracking=True,
                       ping_interval=0.1, ping_timeout=0.3,
                       election_tick=0.05)
    assert spelled == ZKParams(failure_detection=True, ping_interval=0.1,
                               ping_timeout=0.3, election_tick=0.05)
    assert "session_tracking" not in {f.name for f in fields(ZKParams)}


def test_all_service_times_positive():
    for model in (ZKParams(), LustreParams(), PVFSParams(), FUSEParams(),
                  DUFSParams()):
        table = {**vars(type(model)), **vars(model)}    # constants too
        for name, value in table.items():
            if name.endswith(("_cpu", "_delay", "_txn", "_coef")) and \
                    isinstance(value, float):
                assert value >= 0, (type(model).__name__, name)


def test_memory_model_slope_matches_paper():
    model = MemoryModel()
    per_million_mb = model.bytes_per_znode  # B/znode == MB/M znodes
    assert abs(per_million_mb - ZNODE_BYTES_PER_MILLION_MB) < 25


def test_zookeeper_memory_linear():
    model = MemoryModel()
    m1 = model.zookeeper_mb(1_000_000)
    m2 = model.zookeeper_mb(2_000_000)
    m3 = model.zookeeper_mb(3_000_000)
    assert m2 - m1 == pytest.approx(m3 - m2)
    assert model.zookeeper_mb(0) == ZK_BASELINE_MB


def test_client_memory_flat():
    model = MemoryModel()
    assert model.dufs_client_mb(0) == model.dufs_client_mb(10**7)
    assert model.dummy_fuse_mb(0) == model.dummy_fuse_mb(10**7)
    # more mounts -> slightly more client memory
    assert model.dufs_client_mb(0, n_mounts=4) > \
        model.dufs_client_mb(0, n_mounts=2)


def test_memory_model_agrees_with_znode_store_accounting():
    """The store's tracked bytes equal the model for same-shape znodes."""
    from repro.zk.data import ZnodeStore

    model = MemoryModel(avg_path_len=20, avg_data_len=10)
    store = ZnodeStore()
    path = "/" + "x" * 19          # 20 chars
    store.apply_create(path, b"d" * 10, 1, 0.0)
    delta = store.approx_memory_bytes - ZnodeStore().approx_memory_bytes
    assert delta == pytest.approx(model.bytes_per_znode, abs=1)
