"""Post-fault namespace auditor (fsck for DUFS).

After a chaos run, the ZooKeeper znode tree *is* the namespace and the
back-end filesystems hold the file contents; faults can tear the two
apart. The auditor cross-checks them directly on the in-memory state (no
simulated I/O — it is an offline oracle, like running fsck on an unmounted
disk):

- ``dangling-mapping`` — a file znode whose FID has no physical file on
  the back-end it maps to (the *dangerous* kind: open() will fail).
- ``orphan-fid`` — a physical file no znode references (leaked space; the
  benign direction, which is why the client's rollback logic prefers it).
- ``duplicate-fid`` — two znodes claiming the same FID.
- ``bad-payload`` — a znode whose data field does not decode.
- ``tree-invariant`` — a child hanging off a non-directory znode (or a
  child whose parent znode is missing altogether — possible only as
  cross-shard crash residue).

Sharded deployments (``deployment.n_shards > 1``) are audited on a
*merged* view: each shard contributes the freshest replica of its
ensemble, only **home copies** are authoritative (child-host anchor
copies and placeholders are routing artifacts and are skipped), and any
surviving cross-shard *intent records* (``/.dufs-intent/…``) are rolled
forward into the view first — exactly the reconciliation a recovery tool
would run, counted in ``AuditReport.repairs``. A crash mid cross-shard
rename therefore audits clean: the intent record deterministically
finishes the operation.

Elastic deployments additionally audit against the **registry's current
shard map** (clients adopt epochs lazily, so their own maps may lag) and
roll surviving *migration markers* (``b"M:"``-prefixed intents) forward:
under current-map authority the merged view is already complete on both
sides of a torn migration's cutover, so the roll-forward retires the
marker and counts one repair.

A client may leave physical files no znode references, and one rule
covers both write modes: a file create makes its file before the znode,
and a file delete unlinks its file only after the znode delete landed.
A live client's files in flight — a synchronous client's *spares*, files
made ahead of the create that will name them, and the files of its
creates and reclaims (an unlink's name gone, its file not yet unlinked)
still in flight, inline or in a write-behind drain — are owned files
(``AuditReport.spares``). The ones a client node crash cut off are
residue (``AuditReport.lost_spares``), like Lustre's stranded precreated
objects: for a write-behind client they are the files of the acked ops
its bounded loss window dropped. Each client lists both classes by FID
(``PhysicalFiles.residue``). Since the physical step always comes before
the name or after it is gone, neither class can leave a dangling
mapping, and that violation is never excused.

The report is machine-readable (:meth:`AuditReport.to_dict`) and
deterministic: violations are sorted, so two runs with the same seed and
schedule produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.mapping import physical_path
from ..core.paths import parent_dir
from ..core.metadata import DirPayload, FilePayload, SymlinkPayload, \
    decode_payload
from ..zk.data import ZnodeStore


@dataclass(frozen=True)
class Violation:
    kind: str
    path: str
    detail: str = ""

    def __str__(self) -> str:
        s = f"{self.kind}: {self.path}"
        return f"{s} ({self.detail})" if self.detail else s


@dataclass
class AuditReport:
    checked_znodes: int = 0
    checked_files: int = 0
    violations: List[Violation] = field(default_factory=list)
    repairs: int = 0        # intent-record steps rolled forward (sharded)
    # Files no name maps to that a live client owns, in either write
    # mode: its spares and the files of its creates and reclaims (an
    # unlink's file not yet unlinked) in flight, write-behind drains'
    # included.
    spares: int = 0
    # The same files of a client a node crash cut off: its spares and
    # in-flight creates and reclaims, a write-behind client's lost
    # acked creates and deletes among them.
    lost_spares: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked_znodes": self.checked_znodes,
            "checked_files": self.checked_files,
            "repairs": self.repairs,
            "spares": self.spares,
            "lost_spares": self.lost_spares,
            "violations": [
                {"kind": v.kind, "path": v.path, "detail": v.detail}
                for v in sorted(self.violations,
                                key=lambda v: (v.kind, v.path, v.detail))
            ],
        }

    def to_text(self) -> str:
        repaired = f", {self.repairs} intent repairs" if self.repairs else ""
        spares = f", spares: {self.spares} live, {self.lost_spares} lost" \
            if self.spares or self.lost_spares else ""
        lines = [f"audit: {self.checked_znodes} znodes, "
                 f"{self.checked_files} physical files{repaired}"
                 f"{spares} -> "
                 f"{'CLEAN' if self.ok else f'{len(self.violations)} violations'}"]
        for v in sorted(self.violations,
                        key=lambda v: (v.kind, v.path, v.detail)):
            lines.append(f"  {v}")
        return "\n".join(lines)


# -- back-end enumeration ---------------------------------------------------
def _namespace_files(ns) -> Set[str]:
    """All regular-file paths of a :class:`~repro.pfs.namespace.Namespace`."""
    out: Set[str] = set()

    def rec(prefix: str, inode) -> None:
        for name, ino in inode.entries.items():
            child = ns.inodes[ino]
            path = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
            if child.is_dir:
                rec(path, child)
            elif child.symlink_target is None:
                out.add(path)

    rec("/", ns.root)
    return out


def physical_files(backend_fs) -> Set[str]:
    """Enumerate the regular files of a back-end that keeps its tree in a
    :class:`~repro.pfs.namespace.Namespace` (LocalFS, LustreFS)."""
    ns = getattr(backend_fs, "ns", None)               # LocalFS
    if ns is None:
        mds = getattr(backend_fs, "mds", None)          # LustreFS
        if mds is not None:
            ns = mds.ns
    if ns is not None:
        return _namespace_files(ns)
    raise TypeError(f"cannot enumerate files of {backend_fs!r}")


# -- the audit --------------------------------------------------------------
def freshest_store(ensemble) -> ZnodeStore:
    """The authoritative replica: highest commit index, preferring live
    nodes (a crashed minority may hold a stale tree — that is expected,
    not a violation)."""
    servers = [s for s in ensemble.servers if not s.node.down] \
        or list(ensemble.servers)
    return max(servers, key=lambda s: s.commit_index).store


def merged_namespace_view(deployment) -> Tuple[Dict[str, bytes], int]:
    """The sharded deployment's namespace as one ``{path: data}`` dict.

    Each shard contributes its ensemble's freshest replica; only *home
    copies* are authoritative (child-host anchors/placeholders are routing
    artifacts). Surviving cross-shard intent records are rolled forward
    into the view, reconciling interrupted operations. Returns the view
    and the number of roll-forward repairs applied.
    """
    from ..mds import INTENT_ROOT, apply_intent_to_view, decode_intent, \
        is_migration_marker

    service = deployment.clients[0].zk
    # Elastic deployments: the registry's CURRENT map is the authority,
    # not whatever epoch a client last adopted (adoption is lazy). This
    # is what makes live migration crash-safe — a crash before cutover
    # leaves the old map current (frozen source complete, destination
    # partials invisible); after cutover the new map is current
    # (destination complete, stale source leftovers invisible).
    registry = getattr(deployment, "registry", None)
    shard_map = registry.current if registry is not None else service.map
    view: Dict[str, bytes] = {}
    intents: List[Tuple[str, bytes]] = []
    for k, ensemble in enumerate(deployment.ensembles):
        store = freshest_store(ensemble)
        for path in store.walk_paths():
            if path == "/":
                continue
            if path == INTENT_ROOT or path.startswith(INTENT_ROOT + "/"):
                if path != INTENT_ROOT:
                    intents.append((path, store.get(path)[0]))
                continue
            if shard_map.home_shard(path) == k:
                view[path] = store.get(path)[0]
    repairs = 0
    for _path, data in sorted(intents):
        if is_migration_marker(data):
            # Torn subtree migration. Rolling it forward is retiring the
            # marker: under current-map authority the merged view is
            # already the pre- or post-cutover namespace, whichever the
            # installed epoch says — both complete.
            repairs += 1
            continue
        try:
            steps = decode_intent(data)
        except (ValueError, UnicodeDecodeError):
            continue
        repairs += apply_intent_to_view(view, steps)
    return view, repairs


def audit_dufs(deployment) -> AuditReport:
    """Cross-check a DUFS deployment's ZK namespace against its back-ends.

    ``deployment`` is a :class:`~repro.core.fs.DUFSDeployment`; the znode
    tree audited is the freshest replica of each shard's ensemble, merged
    and intent-reconciled when sharded.
    """
    report = AuditReport()
    if getattr(deployment, "n_shards", 1) <= 1:
        store = freshest_store(deployment.ensemble)
        view: Dict[str, bytes] = {p: store.get(p)[0]
                                  for p in store.walk_paths() if p != "/"}
    else:
        view, report.repairs = merged_namespace_view(deployment)
    client = deployment.clients[0]
    mapping, layout = client.files.mapping, client.files.layout

    # Pass 1: walk the znode tree, decode payloads, compute the expected
    # physical file set, and check structural invariants.
    expected: Dict[Tuple[int, str], str] = {}   # (backend, ppath) -> vpath
    fids: Dict[int, str] = {}
    for path in view:
        report.checked_znodes += 1
        data = view[path]
        parent = parent_dir(path)
        if parent != "/":
            pdata = view.get(parent)
            try:
                ppayload = decode_payload(pdata) if pdata is not None \
                    else None
            except ValueError:
                ppayload = None
            if pdata is None:
                report.violations.append(Violation(
                    "tree-invariant", path,
                    f"parent {parent} znode is missing"))
            elif not isinstance(ppayload, DirPayload):
                report.violations.append(Violation(
                    "tree-invariant", path,
                    f"parent {parent} is not a directory znode"))
        try:
            payload = decode_payload(data)
        except ValueError as exc:
            report.violations.append(Violation("bad-payload", path, str(exc)))
            continue
        if isinstance(payload, (DirPayload, SymlinkPayload)):
            continue
        assert isinstance(payload, FilePayload)
        fid = payload.fid
        if fid in fids:
            report.violations.append(Violation(
                "duplicate-fid", path,
                f"fid {fid:#x} also referenced by {fids[fid]}"))
        else:
            fids[fid] = path
        backend = mapping.backend_for(fid)
        expected[(backend, physical_path(fid, layout))] = path

    # Each client's residue: unnamed files it owns (in flight) or may
    # leave (a crash cut them off) — bounded loss, not namespace damage.
    # Nothing in it can leave a dangling mapping, so that violation is
    # never excused.
    live, lost = residue = (set(), set())
    for cli in deployment.clients:
        for files, fids in zip(residue, cli.files.residue()):
            files.update((mapping.backend_for(fid),
                          physical_path(fid, layout)) for fid in fids)

    # Pass 2: enumerate back-end files and diff both directions.
    actual: Set[Tuple[int, str]] = set()
    for i, backend_fs in enumerate(deployment.backends):
        for ppath in physical_files(backend_fs):
            actual.add((i, ppath))
    report.checked_files = len(actual)

    for key in sorted(expected.keys() - actual):
        backend, ppath = key
        report.violations.append(Violation(
            "dangling-mapping", expected[key],
            f"no physical file {ppath} on back-end {backend}"))
    for backend, ppath in sorted(actual - expected.keys()):
        if (backend, ppath) in live:
            report.spares += 1
        elif (backend, ppath) in lost:
            report.lost_spares += 1
        else:
            report.violations.append(Violation(
                "orphan-fid", ppath,
                f"back-end {backend} file not referenced by any znode"))
    return report
