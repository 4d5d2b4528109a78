"""FUSE worker-thread pool: the per-mount concurrency bound."""

import pytest

from repro.fuse import FuseMount, OperationTable
from repro.models.params import FUSEParams
from repro.sim import Cluster


def make_mount(max_workers, handler_delay):
    cluster = Cluster(seed=0)
    node = cluster.add_node("n0", cores=64)  # CPU never the constraint

    def slow_getattr(path):
        yield cluster.sim.timeout(handler_delay)
        return path

    mount = FuseMount(node, OperationTable({"getattr": slow_getattr}),
                      params=FUSEParams(max_workers=max_workers))
    return cluster, node, mount


def test_worker_pool_bounds_concurrency():
    cluster, node, mount = make_mount(max_workers=2, handler_delay=1.0)
    done = []

    def caller(k):
        yield from mount.stat(f"/f{k}")
        done.append((k, round(cluster.sim.now, 3)))

    for k in range(6):
        node.spawn(caller(k))
    cluster.run()
    # 6 requests, 2 workers, 1 s each -> waves at ~1, ~2, ~3 s.
    times = sorted(t for _, t in done)
    assert times[1] < 1.1
    assert times[2] > 1.9
    assert times[-1] > 2.9


def test_throughput_equals_workers_over_latency():
    cluster, node, mount = make_mount(max_workers=4, handler_delay=0.01)
    count = [0]

    def spinner():
        while cluster.sim.now < 2.0:
            yield from mount.stat("/x")
            count[0] += 1

    for _ in range(32):
        node.spawn(spinner())
    cluster.sim.run(until=2.0)
    rate = count[0] / 2.0
    assert rate == pytest.approx(4 / 0.0102, rel=0.1)


def test_errors_release_workers():
    from repro.errors import ENOENT, FSError

    cluster = Cluster(seed=0)
    node = cluster.add_node("n0")

    def failing(path):
        yield cluster.sim.timeout(0.001)
        raise FSError(ENOENT, path)

    mount = FuseMount(node, OperationTable({"getattr": failing}),
                      params=FUSEParams(max_workers=1))
    failures = []

    def caller(k):
        try:
            yield from mount.stat(f"/{k}")
        except FSError:
            failures.append(k)

    for k in range(5):
        node.spawn(caller(k))
    cluster.run()
    assert len(failures) == 5      # the single worker was never leaked
    assert not mount.workers.users
