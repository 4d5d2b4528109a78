"""Service-kernel acceptance: trace determinism and batcher occupancy.

* the instrumented stack is a pure observer — two identically-seeded
  runs produce byte-identical op-trace streams;
* every layer reports queue wait and service time through the one bus,
  and the group-commit batchers report how full their flushes run.
"""

from repro.core.fs import build_dufs_deployment
from repro.svc import TraceBus
from repro.workloads.mdtest import MdtestConfig, run_mdtest


def _traced_run(seed, n_zk=3, n_procs=8, items=6,
                phases=("dir_create", "dir_stat", "dir_remove")):
    bus = TraceBus(keep_events=True)
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=2, n_client_nodes=4,
                                backend="local", seed=seed, bus=bus)
    cfg = MdtestConfig(n_procs=n_procs, items_per_proc=items, phases=phases)
    result = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
    return result, bus


def test_traces_byte_identical():
    a, bus_a = _traced_run(seed=11)
    b, bus_b = _traced_run(seed=11)
    assert bus_a.events, "trace bus captured nothing"
    # OpTrace is a frozen dataclass: list equality compares every field of
    # every recorded op, i.e. the full trace stream is byte-identical.
    assert bus_a.events == bus_b.events
    for phase in a.phases:
        assert a.phases[phase].duration == b.phases[phase].duration
    # Every layer reports through the one bus.
    deployments = {k.split("/")[0] for k in bus_a.keys()}
    assert {"dufs", "zk"} <= deployments


def test_every_endpoint_reports_queue_wait_and_service():
    _, bus = _traced_run(seed=2)
    for key in bus.keys():
        assert bus.service.summary(key).count == bus.ops.get(key)


def test_traced_zk_pipeline_reports_batch_occupancy():
    """The ZK txn-log group commit publishes per-flush occupancy through
    the bus, so `repro trace` can show how full the batches actually run.
    The leader proposes inline: no proposer batcher exists."""
    _, bus = _traced_run(seed=3, n_zk=3, n_procs=8, items=8,
                         phases=("dir_create",))
    occ = bus.batch_occupancy()
    zk_batchers = {k for k in occ if k.startswith("zk/")}
    assert zk_batchers, f"no zk batcher occupancy recorded: {sorted(occ)}"
    for key in zk_batchers:
        assert key.endswith(".logger"), key
        row = occ[key]
        assert row["flushes"] > 0
        assert row["fill_mean"] >= 1.0
    assert not any(".proposer" in k for k in occ)
    assert "batcher" in bus.table()


def test_traced_async_client_reports_wblog_occupancy():
    from repro.models.params import AsyncParams

    bus = TraceBus(keep_events=True)
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local", seed=5, bus=bus,
                                awrite=AsyncParams.async_on())
    cfg = MdtestConfig(n_procs=2, items_per_proc=10,
                       phases=("file_create",), drain=True)
    run_mdtest(dep.cluster,
               lambda i: dep.clients[i % 2], dep.node_for, cfg)
    occ = bus.batch_occupancy()
    wb = {k: v for k, v in occ.items()
          if k.startswith("dufs/") and ".wblog" in k}
    assert wb, f"no write-behind batcher occupancy: {sorted(occ)}"
    assert sum(v["items"] for v in wb.values()) >= 20
