"""ShardedMDS: placement, readdir semantics, and the cross-shard
two-phase intent protocol, exercised through a real DUFS deployment."""

import itertools
from errno import EEXIST, ENOENT

import pytest

from repro.chaos import audit_dufs
from repro.chaos.audit import freshest_store
from repro.errors import FSError
from repro.mds import INTENT_ROOT, ShardedMDS, SingleEnsembleMDS
from repro.mds.sharded import PLACEHOLDER_DIR_DATA
from repro.core import build_dufs_deployment
from repro.core.metadata import FilePayload
from repro.svc import TraceBus
from repro.zk.errors import NodeExistsError, NoNodeError, NotEmptyError


def make_dep(n_shards=4, **kwargs):
    kwargs.setdefault("n_zk", max(4, n_shards))
    kwargs.setdefault("n_backends", 2)
    kwargs.setdefault("n_client_nodes", 1)
    kwargs.setdefault("backend", "local")
    return build_dufs_deployment(n_shards=n_shards, **kwargs)


def find_dir(svc, pred, prefix="/t"):
    """A directory name satisfying a shard-placement predicate."""
    for i in range(256):
        name = f"{prefix}{i}"
        if pred(name):
            return name
    raise AssertionError("no dir name matched the placement predicate")


def test_deployment_picks_the_right_service():
    assert isinstance(make_dep(n_shards=4).clients[0].zk, ShardedMDS)
    assert isinstance(make_dep(n_shards=1).clients[0].zk, SingleEnsembleMDS)


def test_directory_materializes_on_home_and_child_shards():
    dep = make_dep()
    svc = dep.clients[0].zk
    d = find_dir(svc, lambda p: svc.map.home_shard(p)
                 != svc.map.child_shard(p))
    dep.call(dep.mounts[0].mkdir, d)
    dep.call(dep.mounts[0].create, f"{d}/f")
    home, child = svc.map.home_shard(d), svc.map.child_shard(d)

    def probe(shard, path):
        return dep.call(svc.client_for_shard(shard).exists, path)

    assert probe(home, d) is not None          # authoritative home copy
    assert probe(child, d) is not None         # child-host anchor copy
    # The file entry lives ONLY on its home shard (= the dir's child
    # shard); the dir's home shard holds no entry for it.
    assert probe(child, f"{d}/f") is not None
    assert probe(home, f"{d}/f") is None or home == child
    # readdir is served by the child shard and sees the entry.
    assert dep.call(svc.get_children, d) == ["f"]


def test_readdir_falls_back_to_home_copy_for_missing_anchor():
    dep = make_dep()
    svc = dep.clients[0].zk
    d = find_dir(svc, lambda p: svc.map.home_shard(p)
                 != svc.map.child_shard(p))
    dep.call(dep.mounts[0].mkdir, d)
    # Simulate crash residue: the child-host copy vanished.
    dep.call(svc.client_for_shard(svc.map.child_shard(d)).delete, d)
    assert dep.call(svc.get_children, d) == []   # home copy: dir exists
    with pytest.raises(NoNodeError):
        dep.call(svc.get_children, "/never-created")


def test_placeholder_anchors_stay_invisible_to_listings():
    dep = make_dep()
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    dep.call(m.mkdir, "/deep")
    dep.call(m.mkdir, "/deep/a")
    dep.call(m.mkdir, "/deep/a/b")
    dep.call(m.create, "/deep/a/b/f")
    # Whatever placeholder chains were built, every listing shows exactly
    # the real entries.
    assert dep.call(svc.get_children, "/deep") == ["a"]
    assert dep.call(svc.get_children, "/deep/a") == ["b"]
    assert dep.call(svc.get_children, "/deep/a/b") == ["f"]


def cross_shard_pair(svc):
    """Two dirs whose entry sets live on different shards."""
    a = find_dir(svc, lambda p: True)
    b = find_dir(svc, lambda p: svc.map.child_shard(p)
                 != svc.map.child_shard(a), prefix="/u")
    return a, b


def test_cross_shard_rename_runs_the_intent_protocol():
    dep = make_dep()
    svc = dep.clients[0].zk
    a, b = cross_shard_pair(svc)
    m = dep.mounts[0]
    dep.call(m.mkdir, a)
    dep.call(m.mkdir, b)
    dep.call(m.create, f"{a}/f")
    assert dep.call(dep.clients[0].rename, f"{a}/f", f"{b}/f")
    assert dep.call(svc.get_children, a) == []
    assert dep.call(svc.get_children, b) == ["f"]
    assert svc.stats["cross_shard_ops"] >= 1
    assert svc.stats["intents_written"] == svc.stats["intents_retired"]
    report = audit_dufs(dep)
    assert report.ok, report.to_text()


def test_root_listing_hides_the_intent_area():
    dep = make_dep()
    svc = dep.clients[0].zk
    a, b = cross_shard_pair(svc)
    m = dep.mounts[0]
    dep.call(m.mkdir, a)
    dep.call(m.mkdir, b)
    dep.call(m.create, f"{a}/f")
    dep.call(dep.clients[0].rename, f"{a}/f", f"{b}/f")
    names = set(dep.call(svc.get_children, "/"))
    assert names == {a[1:], b[1:]}
    # ... even though the intent root genuinely exists on some shard.
    raw = [k for k in range(svc.n_shards)
           if dep.call(svc.client_for_shard(k).exists, INTENT_ROOT)]
    assert raw, "cross-shard rename should have created the intent root"


def test_cross_shard_multi_keeps_the_notempty_guard():
    dep = make_dep()
    svc = dep.clients[0].zk
    d = find_dir(svc, lambda p: svc.map.home_shard(p)
                 != svc.map.child_shard(p))
    m = dep.mounts[0]
    dep.call(m.mkdir, d)
    dep.call(m.create, f"{d}/f")
    before = svc.stats["intents_written"]
    with pytest.raises(NotEmptyError):
        dep.call(svc.multi, [svc.op_delete(d),
                             svc.op_create(d, PLACEHOLDER_DIR_DATA)])
    # Rejected before any journaling or mutation.
    assert svc.stats["intents_written"] == before
    assert dep.call(svc.exists, d) is not None
    assert dep.call(svc.get_children, d) == ["f"]


def test_last_retries_resets_per_operation():
    dep = make_dep()
    svc = dep.clients[0].zk
    dep.call(dep.mounts[0].mkdir, "/r")
    assert svc.last_retries == 0     # healthy cluster: no retries anywhere
    dep.call(svc.get, "/r")
    assert svc.last_retries == 0


# ---------------------------------------------------------------------------
# The two-copy directory contract (MODEL.md §9, C1-C3): both copies are
# written concurrently, and nobody — caller, racing third party, a later
# rmdir — can tell.
# ---------------------------------------------------------------------------

def on_shard(dep, shard, path):
    """Synchronous peek: does ``shard``'s ensemble hold a znode at ``path``?"""
    return freshest_store(dep.ensembles[shard]).exists(path) is not None


def client_rpcs(bus, since=0, endpoint="dufszk0"):
    """Client-side ZooKeeper RPC records of one node's shard clients."""
    return [ev for ev in bus.events[since:]
            if ev.deployment == "zk" and ev.endpoint.startswith(endpoint)]


def cold_chain_dir(svc, missing=1):
    """Ancestors-then-directory ``[p, p/q0, .., d]`` such that the shard
    taking ``d``'s anchor holds a real copy of ``p`` and nothing below it:
    the anchor's chain lacks exactly its ``missing`` deepest components."""
    m = svc.map
    for idx in itertools.product(range(8), repeat=missing + 2):
        chain = [f"/p{idx[0]}"]
        for depth, i in enumerate(idx[1:]):
            chain.append(f"{chain[-1]}/q{depth}{i}")
        s = m.child_shard(chain[-1])
        if s != m.home_shard(chain[-1]) \
                and s in (m.home_shard(chain[0]), m.child_shard(chain[0])) \
                and not any(s in (m.home_shard(q), m.child_shard(q))
                            for q in chain[1:-1]):
            return chain
    raise AssertionError("no cold-chain placement among the candidates")


def test_warm_mkdir_writes_both_copies_at_the_same_instant():
    bus = TraceBus(keep_events=True)
    dep = make_dep(bus=bus)
    svc = dep.clients[0].zk
    d = find_dir(svc, lambda p: svc.map.home_shard(p)
                 != svc.map.child_shard(p))
    dep.call(dep.mounts[0].mkdir, d)
    # C1: both copies exist when mkdir returns.
    assert on_shard(dep, svc.map.home_shard(d), d)
    assert on_shard(dep, svc.map.child_shard(d), d)
    home, anchor = sorted(client_rpcs(bus), key=lambda ev: ev.shard
                          != svc.map.home_shard(d))
    assert (home.method, anchor.method) == ("write", "write")
    assert {home.shard, anchor.shard} == {svc.map.home_shard(d),
                                          svc.map.child_shard(d)}
    # Issued together, so each is in flight before the other's reply (a
    # serial version issues the second at the first's ``end``).
    assert max(home.arrive, anchor.arrive) < min(home.end, anchor.end)


def test_cold_chain_costs_one_placeholder_not_depth():
    bus = TraceBus(keep_events=True)
    dep = make_dep(bus=bus)
    svc = dep.clients[0].zk
    p, q, d = cold_chain_dir(svc)
    dep.call(dep.mounts[0].mkdir, p)
    dep.call(dep.mounts[0].mkdir, q)
    since, before = len(bus.events), svc.stats["anchors_created"]
    dep.call(dep.mounts[0].mkdir, d)
    child, home = svc.map.child_shard(d), svc.map.home_shard(d)
    rpcs = sorted((ev.shard, ev.method, ev.ok)
                  for ev in client_rpcs(bus, since))
    # Probe (NoNode), exists(parent) at the parent's home, ONE placeholder,
    # the anchor — and the home create. Top-down, the chain would add
    # ``depth - 1`` creates answered NodeExists.
    assert rpcs == sorted([(child, "write", False),
                           (svc.map.home_shard(q), "read", True),
                           (child, "write", True), (child, "write", True),
                           (home, "write", True)])
    assert svc.stats["anchors_created"] - before == 1   # successes only
    assert on_shard(dep, child, q) and on_shard(dep, child, d)


def test_failed_anchor_takes_the_home_copy_back():
    """C2: never a stat-able directory that cannot take entries."""
    dep = make_dep(co_locate_zk=False, zk_request_timeout=0.2,
                   zk_max_retries=1)
    svc = dep.clients[0].zk
    d = find_dir(svc, lambda p: svc.map.home_shard(p)
                 != svc.map.child_shard(p))
    for server in dep.ensembles[svc.map.child_shard(d)].servers:
        server.node.crash()
    with pytest.raises(FSError):
        dep.call(dep.mounts[0].mkdir, d)
    assert dep.call(svc.exists, d) is None
    assert not on_shard(dep, svc.map.home_shard(d), d)


def race(dep, first, second):
    """Run two client coroutines concurrently, one per client node."""
    procs = [node.spawn(gen) for node, gen in zip(dep.client_nodes,
                                                  (first, second))]
    for proc in procs:
        dep.cluster.sim.run(until=proc)


def outcome(log, op, path):
    try:
        yield from op(path)
        log[path] = None
    except FSError as exc:
        log[path] = exc.err


def test_third_party_create_rides_out_the_slower_anchor():
    """C3: the home copy of ``d`` is visible before its cold-chain anchor
    lands; entries created on sight must not answer ENOENT."""
    bus = TraceBus(keep_events=True)
    dep = make_dep(n_client_nodes=2, bus=bus)
    a, b = dep.clients
    *above, d = cold_chain_dir(a.zk, missing=3)
    for path in above:
        dep.call(a.mkdir, path)
    log = {}

    def on_sight():
        while True:
            try:
                yield from b.stat(d)
                break
            except FSError:
                pass
        twins = [dep.client_nodes[1].spawn(outcome(log, b.mkdir, f"{d}/sub")),
                 dep.client_nodes[1].spawn(outcome(log, b.create, f"{d}/f"))]
        for proc in twins:
            yield proc

    since = len(bus.events)
    race(dep, a.mkdir(d), on_sight())
    assert log == {f"{d}/sub": None, f"{d}/f": None}
    # The race was real: the anchor's shard refused an entry before it
    # took it.
    assert any(ev.method == "write" and not ev.ok
               for ev in client_rpcs(bus, since, "dufszk1"))
    assert sorted(e.name for e in dep.call(a.readdir, d)) == ["f", "sub"]
    assert audit_dufs(dep).ok


def test_create_racing_rmdir_is_enoent_and_writes_nothing():
    """C3, the other in-flight case: between an rmdir's two deletes the
    parent still exists at its home. The create waits, the parent goes,
    NoNode — and no helper re-created the anchor for it to land under.
    (Issued at the service: the client's own parent lookup would use up
    the window.)"""
    bus = TraceBus(keep_events=True)
    dep = make_dep(n_client_nodes=2, bus=bus)
    a, b = dep.clients
    m = a.zk.map
    *_, d = chain = cold_chain_dir(a.zk)
    for path in chain:
        dep.call(a.mkdir, path)
    log = {}

    def between_the_deletes():
        while on_shard(dep, m.child_shard(d), d):
            yield dep.cluster.sim.timeout(20e-6)
        try:
            yield from b.zk.create(f"{d}/f", FilePayload(7).encode())
        except NoNodeError:
            log["create"] = ENOENT

    since = len(bus.events)
    race(dep, a.rmdir(d), between_the_deletes())
    assert log == {"create": ENOENT}
    # It did wait: the parent's home said "present" once, so the create
    # went out (and was refused) twice.
    refused = [ev for ev in client_rpcs(bus, since, "dufszk1")
               if ev.method == "write"]
    assert len(refused) == 2 and not any(ev.ok for ev in refused)
    for k in range(a.zk.n_shards):
        assert not on_shard(dep, k, d) and not on_shard(dep, k, f"{d}/f")
    assert audit_dufs(dep).ok


def test_mkdir_errors_are_unchanged_and_leave_no_copy():
    dep = make_dep()
    svc = dep.clients[0].zk
    m = dep.mounts[0]
    d = find_dir(svc, lambda p: svc.map.home_shard(p)
                 != svc.map.child_shard(p))
    dep.call(m.mkdir, d)
    with pytest.raises(FSError) as err:
        dep.call(m.mkdir, d)
    assert err.value.err == EEXIST
    with pytest.raises(NodeExistsError):
        dep.call(svc.create, d, PLACEHOLDER_DIR_DATA)
    # A missing parent whose home copy would sit where the anchor goes.
    never = find_dir(svc, lambda p: svc.map.home_shard(p)
                     != svc.map.child_shard(p), prefix="/never")
    orphan = find_dir(svc, lambda p: svc.map.child_shard(p)
                      == svc.map.home_shard(never), prefix=f"{never}/x")
    with pytest.raises(FSError) as err:
        dep.call(m.mkdir, orphan)
    assert err.value.err == ENOENT
    # Below the client's parent check, too: the service itself says NoNode
    # and conjures up neither the directory nor its missing parent.
    with pytest.raises(NoNodeError):
        dep.call(svc.create, orphan, PLACEHOLDER_DIR_DATA)
    for k in range(svc.n_shards):
        assert not on_shard(dep, k, orphan)
    assert dep.call(svc.exists, never) is None


@pytest.mark.parametrize("n_shards", [2, 4])
def test_bottom_up_rmdir_reclaims_placeholder_residue(n_shards):
    """An empty directory must be removable: placeholders its home copy
    still holds for descendants long gone are residue, not entries."""
    dep = build_dufs_deployment(n_zk=8, n_shards=n_shards, n_backends=2,
                                n_client_nodes=2, backend="local", seed=0)
    client = dep.clients[0]
    dirs = [f"/a{i}" for i in range(6)]
    dirs += [f"{a}/b{j}" for a in dirs for j in range(4)]
    dirs += [f"{b}/c{k}" for b in dirs[6:] for k in range(3)]
    for path in dirs:
        dep.call(client.mkdir, path)
    failed = {}
    for path in reversed(dirs):
        try:
            dep.call(client.rmdir, path)
        except FSError as exc:
            failed[path] = exc.err
    assert failed == {}
    assert dep.call(client.readdir, "/") == []
    # A reclaimed placeholder that is needed again is simply rebuilt.
    for path in ("/a0", "/a0/b0", "/a0/b0/c0"):
        dep.call(client.mkdir, path)
    dep.call(client.create, "/a0/b0/c0/f")
    assert audit_dufs(dep).ok


def test_deep_cross_shard_directory_rename_reclaims_residue():
    """The intent protocol's ``absent`` steps delete two-copy directories
    by the same rule (was: ENOTEMPTY half-way through the rename)."""
    for i in range(12):
        dep = make_dep(n_zk=8)
        client = dep.clients[0]
        for path in (f"/x{i}", f"/x{i}/y", f"/x{i}/y/z", f"/x{i}/y/z/w"):
            dep.call(client.mkdir, path)
        dep.call(client.create, f"/x{i}/y/z/w/f")
        dep.call(client.rename, f"/x{i}", f"/q{i}")
        assert dep.call(client.stat, f"/q{i}/y/z/w/f").is_file
        assert audit_dufs(dep).ok
