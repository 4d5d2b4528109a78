"""Namespace auditor: clean runs audit clean, and each injected
inconsistency class is detected and classified."""

import pytest

from repro.chaos import audit_dufs
from repro.chaos.audit import freshest_store, physical_files
from repro.core import build_dufs_deployment
from repro.core.metadata import DirPayload, FilePayload


@pytest.fixture
def dep():
    return build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                 backend="local", seed=2)


def populate(dep, n_files=8):
    mount = dep.mounts[0]
    dep.call(mount.mkdir, "/d")
    for i in range(n_files):
        dep.call(mount.create, f"/d/f{i}")


def test_clean_deployment_audits_clean(dep):
    populate(dep)
    report = audit_dufs(dep)
    assert report.ok, report.to_text()
    assert report.checked_znodes == 9   # /d + 8 files
    assert report.checked_files == 8 + 1    # and the mount's spare
    assert (report.spares, report.lost_spares) == (1, 0)
    assert "spares: 1 live, 0 lost -> CLEAN" in report.to_text()


def test_unlink_leaves_no_residue(dep):
    populate(dep, n_files=4)
    for i in range(4):
        dep.call(dep.mounts[0].unlink, f"/d/f{i}")
    report = audit_dufs(dep)
    assert report.ok, report.to_text()
    assert report.checked_files == 0 + 1    # the mount's spare
    assert report.spares == 1


def test_detects_orphan_physical_file(dep):
    populate(dep, n_files=2)
    # A physical file nothing references (e.g. a rollback that never ran).
    dep.backends[0].ns.create("/stray", 0o644, 0.0)
    report = audit_dufs(dep)
    assert not report.ok
    assert report.count("orphan-fid") == 1
    v = [v for v in report.violations if v.kind == "orphan-fid"][0]
    assert v.path == "/stray"


def test_a_create_in_flight_owns_its_file_and_a_stray_is_an_orphan():
    """Audited while a synchronous create's znode write is in flight
    behind a slowed link: the file its spare made is one the mount owns,
    counted among the spares like the next spare, not an orphan. A file
    that no mount holds still is one."""
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1,
                                backend="local", seed=2, co_locate_zk=False)
    populate(dep, n_files=1)
    sim, node = dep.cluster.sim, dep.client_nodes[0]
    dep.cluster.network.degrade_link(
        node.name, dep.ensemble.servers[0].node.name, latency_factor=1e4)
    create = node.spawn(dep.clients[0].create("/d/late"))
    sim.run(until=sim.now + 0.1)
    assert not create.triggered         # its znode write is on the link
    dep.backends[0].ns.create("/stray", 0o644, 0.0)
    report = audit_dufs(dep)
    # /d/f0, the create's file, the next spare and the stray:
    assert report.checked_files == 4
    assert (report.spares, report.lost_spares) == (2, 0)
    assert [(v.kind, v.path) for v in report.violations] == \
        [("orphan-fid", "/stray")]


def test_detects_dangling_mapping(dep):
    populate(dep, n_files=3)
    # Remove one physical file behind the namespace's back.
    for backend in dep.backends:
        files = sorted(physical_files(backend))
        if files:
            backend.ns.unlink(files[0], 0.0)
            break
    report = audit_dufs(dep)
    assert not report.ok
    assert report.count("dangling-mapping") == 1


def test_detects_bad_payload_and_tree_invariant(dep):
    populate(dep, n_files=1)
    zkc = dep.zk_clients[0]
    dep.call(zkc.create, "/junk", b"garbage")
    dep.call(zkc.create, "/file2", FilePayload(fid=0xDEAD).encode())
    dep.call(zkc.create, "/file2/kid", DirPayload().encode())
    report = audit_dufs(dep)
    assert report.count("bad-payload") == 1
    assert report.count("tree-invariant") == 1   # /file2/kid under a file
    assert report.count("dangling-mapping") == 1  # 0xDEAD has no file


def test_detects_duplicate_fid(dep):
    populate(dep, n_files=1)
    store = freshest_store(dep.ensemble)
    path, = [p for p in store.walk_paths() if p.startswith("/d/")]
    data, _ = store.get(path)
    zkc = dep.zk_clients[0]
    dep.call(zkc.create, "/twin", data)    # same FID, second znode
    report = audit_dufs(dep)
    assert report.count("duplicate-fid") == 1


def test_report_is_deterministic_and_machine_readable(dep):
    populate(dep, n_files=2)
    dep.backends[0].ns.create("/stray-b", 0o644, 0.0)
    dep.backends[0].ns.create("/stray-a", 0o644, 0.0)
    d1 = audit_dufs(dep).to_dict()
    d2 = audit_dufs(dep).to_dict()
    assert d1 == d2
    assert d1["ok"] is False
    kinds = [v["kind"] for v in d1["violations"]]
    assert kinds == sorted(kinds)
    paths = [v["path"] for v in d1["violations"]]
    assert paths == sorted(paths)   # same kind -> path-sorted
