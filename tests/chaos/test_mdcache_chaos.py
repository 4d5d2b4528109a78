"""Client metadata cache under faults: coherence holds, staleness bounded.

Two claims from the cache PR's acceptance bar:

- a chaos run with caching enabled still audits clean — watch-based
  invalidation plus flush-on-watch-loss keep every client's view
  reconcilable with the authoritative namespace even while ZooKeeper
  servers crash and recover under the op stream;
- the stale-read window after a remote write is bounded by watch
  delivery (one cast after the committed txn is applied), not by any
  TTL — a cached entry can be served stale only for the notification
  hop, never indefinitely.
"""

import pytest

from repro.chaos import ChaosSchedule, run_chaos
from repro.core import build_dufs_deployment
from repro.models.params import CacheParams, SimParams
from repro.sim.core import AllOf


@pytest.mark.chaos
def test_chaos_run_with_cache_enabled_audits_clean():
    sched = ChaosSchedule().crash(0.5, "meta:0").recover(2.0, "meta:0")
    result = run_chaos("dufs", schedule=sched, ops=300, seed=7,
                       params=SimParams(cache=CacheParams.caching_on()))
    assert result.failed == 0
    assert result.completed == 300
    assert result.audit is not None and result.audit.ok, \
        result.audit.to_text()


@pytest.mark.chaos
def test_chaos_random_minority_crashes_with_cache_audits_clean():
    result = run_chaos("dufs", seed=11, ops=250,
                       params=SimParams(cache=CacheParams.caching_on()))
    assert result.audit is not None and result.audit.ok, \
        result.audit.to_text()
    assert result.completed > 0


def test_stale_read_window_bounded_by_watch_delivery():
    """Client 0 polls a cached directory's mode every millisecond while
    client 1 chmods it. Once the write commits, client 0 may serve the
    old mode only until the watch event lands (a single network cast,
    ~100 us) — and never flips back."""
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local", seed=7,
                                cache=CacheParams.caching_on())
    sim = dep.cluster.sim
    c0, c1 = dep.clients[0], dep.clients[1]
    dep.call(c0.mkdir, "/d")
    dep.call(c0.stat, "/d")             # warm the cache (mode 0o755)

    observations = []

    def reader():
        for _ in range(150):
            st = yield from c0.stat("/d")
            observations.append((sim.now, st.st_mode & 0o777))
            yield sim.timeout(0.001)

    committed = []

    def writer():
        yield sim.timeout(0.05)
        yield from c1.chmod("/d", 0o700)
        committed.append(sim.now)

    p1 = dep.client_nodes[0].spawn(reader())
    p2 = dep.client_nodes[1].spawn(writer())
    sim.run(until=AllOf(sim, [p1, p2]))

    t_commit = committed[0]
    stale = [t for t, mode in observations if mode == 0o755]
    fresh = [t for t, mode in observations if mode == 0o700]
    assert fresh, "new mode never observed"

    # Staleness past the commit is bounded by watch delivery, orders of
    # magnitude under the 1 ms poll interval's resolution.
    window = max((t - t_commit for t in stale), default=0.0)
    assert window < 0.01, f"stale window {window * 1e3:.2f} ms"

    # Monotone: once the invalidation landed, never stale again.
    assert max(stale) < min(fresh)
    assert dep.clients[0].mdcache.counters["watch_invalidations"] >= 1
