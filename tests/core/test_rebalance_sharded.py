"""Rebalancing through the MetadataService interface: the migration
tooling only uses the public client API (attach_backend_mount /
ensure_physical_dirs / collect_files), so it works unchanged whether the
namespace is one ensemble or a sharded metadata plane."""

from repro.chaos import audit_dufs
from repro.core import build_dufs_deployment
from repro.core.rebalance import collect_files, rebalance_after_add
from repro.mds import MetadataService, ShardedMDS
from repro.pfs.localfs import LocalFS


def make_dep(n_files=48, n_shards=2):
    dep = build_dufs_deployment(n_zk=max(2, n_shards), n_backends=3,
                                n_client_nodes=2, backend="local",
                                mapping_strategy="consistent",
                                n_shards=n_shards)
    m = dep.mounts[0]

    def populate():
        yield from m.mkdir("/data")
        yield from m.mkdir("/proj")
        for i in range(n_files):
            parent = "/data" if i % 2 else "/proj"
            yield from m.create(f"{parent}/f{i:03d}")

    dep.call(lambda: populate())
    return dep


def new_backend_factory(dep):
    node = dep.cluster.add_node(f"local-extra{len(dep.backends)}")
    fs = LocalFS(node)
    dep.backends.append(fs)
    return lambda client: fs.client()


def test_collect_files_spans_shards():
    dep = make_dep(24)
    svc = dep.clients[0].zk
    assert isinstance(svc, ShardedMDS)
    files = dep.call(lambda: collect_files(dep.clients[0]))
    assert len(files) == 24
    # The walk genuinely crossed shards (both dirs' entry sets visited).
    shards = {svc.map.child_shard(p.rsplit("/", 1)[0]) for p, _ in files}
    assert len(shards) == 2


def test_rebalance_over_sharded_namespace_audits_clean():
    dep = make_dep(48)
    assert isinstance(dep.clients[0].zk, MetadataService)
    factory = new_backend_factory(dep)

    def go():
        result = yield from rebalance_after_add(dep.clients, factory)
        return result

    new_index, moved, total = dep.call(lambda: go())
    assert total == 48
    assert new_index == 3
    assert 0 < moved < total / 2
    # Every client's view grew through the public API, in lockstep.
    assert all(len(c.backends) == 4 for c in dep.clients)
    assert all(c.mapping.n_backends == 4 for c in dep.clients)

    # Post-migration the whole deployment still audits clean: every
    # name->FID mapping resolves, no orphans left behind by the moves.
    report = audit_dufs(dep)
    assert report.ok, report.to_text()

    m = dep.mounts[0]

    def verify():
        ok = 0
        files = yield from collect_files(dep.clients[0])
        for vpath, _ in files:
            st = yield from m.stat(vpath)
            ok += st.is_file
        return ok

    assert dep.call(lambda: verify()) == 48
