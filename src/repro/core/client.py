"""The DUFS client: POSIX operations over ZooKeeper metadata + N back-ends.

Implements the paper's algorithms:

- **Directory and symlink operations are metadata-only** — they touch
  ZooKeeper and never the back-end storage (§IV-B: "only steps A and B").
- **File operations** resolve the virtual path to a FID via ZooKeeper, map
  the FID to a back-end mount with the deterministic function, and operate
  on the physical path there (§IV-A, Fig. 3).
- **mkdir** is Fig. 5 verbatim: one znode create, 'File exists' on
  collision. **stat** is Fig. 6: directory stats are answered from the
  znode; file stats are forwarded to the physical file.
- **rename** never moves data: the FID (hence the physical file) is
  reused under the new name, atomically via a ZooKeeper multi-op.

A DUFS client instance keeps nothing the namespace needs: its physical
side, one :class:`~repro.core.physical.PhysicalFiles` with one crash rule,
holds only what a crash may drop or leave as unnamed files (§IV-I).

Both write paths run each mutation through one op runner (``_run``): a
file create's physical file (unless a spare made it), then the metadata
call, then the at-least-once outcome rule. The paper's client runs it
inline before the ack; the write-behind client (:mod:`repro.core.wblog`)
acks once the op is logged and runs it in the drain, so a create's
back-end call is off the ack too.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from ..errors import (EBADF, EEXIST, EINVAL, EIO, EISDIR, ELOOP, ENOENT,
                      ENOTDIR, ENOTEMPTY, MAXSYMLINKS, FSError)
from ..models.params import SimParams
from ..pfs.base import (DEFAULT_DIR_MODE, S_IFDIR, S_IFLNK, S_IFREG,
                        DirEntry, StatResult, StatVFS, normalize_path)
from ..mds import as_metadata_service
from ..sim.node import Node
from ..zk.errors import (BadVersionError, ConnectionLossError, NoNodeError,
                         NodeExistsError, NotEmptyError, ZKError)
from .mapping import MappingFunction
from .mdcache import CoherentMDCache, MDCache, ResolveMiss
from .metadata import DirPayload, FilePayload, SymlinkPayload, decode_payload
from .paths import parent_dir
from .physical import FILE_MODE, PhysicalFiles
from .wblog import PendingOp, WriteBehindLog


#: What ``/`` looks up as: the root znode carries no DUFS payload.
_ROOT = (DirPayload(DEFAULT_DIR_MODE & 0o7777), None)


def _map_zk_error(exc: ZKError, path: str) -> FSError:
    if isinstance(exc, NoNodeError):
        return FSError(ENOENT, path)
    if isinstance(exc, NodeExistsError):
        return FSError(EEXIST, path)
    if isinstance(exc, NotEmptyError):
        return FSError(ENOTEMPTY, path)
    if isinstance(exc, BadVersionError):
        return FSError(EIO, path, "metadata version conflict")
    return FSError(EIO, path, f"coordination service: {exc}")


class DUFSClient:
    """One DUFS client instance (per mount, per node)."""

    def __init__(self, node: Node, zk, backends: Sequence,
                 params: Optional[SimParams] = None,
                 mapping: Optional[MappingFunction] = None,
                 client_id: Optional[int] = None, bus=None,
                 name: Optional[str] = None):
        if not backends:
            raise ValueError("DUFS needs at least one back-end mount")
        self.node = node
        self.sim = node.sim
        # The namespace service: any MetadataService, or a raw ZKClient
        # wrapped into the paper's single-ensemble one.
        self.zk = as_metadata_service(zk)
        self.backends = list(backends)
        params = params or SimParams()
        self.params = params.dufs
        # Open-file handles: open() resolves the FID once (Fig. 3 steps
        # A-C); I/O through a handle never contacts ZooKeeper again.
        self._handles: dict = {}
        self._next_fh = 0
        self.stats = {"zk_reads": 0}
        # The read side, assembled once: pending-write overlay → coherent
        # cache (only when enabled) → the paper's znode ``get`` or a thin
        # client's server-side ``resolve``; it also owns the dcache the
        # real prototype gets for free from VFS.
        chain = CoherentMDCache if params.cache.enabled else MDCache
        self.mdcache = chain(node, self.zk, params.cache, self.stats,
                             bus=bus, endpoint=name or "dufs-client",
                             thin=params.resolve.enabled)
        # The write path, bound once: commit-and-wait (the paper's) or
        # write-behind, whose log exists ONLY when enabled: an async-off
        # deployment runs no code the paper's client would not.
        self.wblog: Optional[WriteBehindLog] = None
        self._commit, self._drain = self._commit_sync, self._drain_sync
        if params.awrite.enabled:
            self.wblog = WriteBehindLog(node, self._run, self.mdcache,
                                        params=params.awrite, bus=bus,
                                        endpoint=name or "dufs-client")
            self._commit, self._drain = self._commit_async, self._drain_async
        self.files = PhysicalFiles(
            node, self.backends, mapping or MappingFunction(len(backends)),
            client_id, not params.cache.enabled, self.wblog is not None)

    # -- internals ------------------------------------------------------------
    def _logic(self, *costs: float) -> Generator:
        yield from self.node.cpu_work(self.params.client_logic_cpu
                                      + sum(costs))

    def _get_payload(self, path: str) -> Generator:
        """Lookup (step B of Fig. 3): payload + znode stat through the
        chain. A miss is ENOTDIR when the nearest existing ancestor is not
        a directory, else ENOENT: named by the thin source's reply, found
        by a parent walk for the paper's source."""
        if path == "/":
            return _ROOT
        try:
            return (yield from self.mdcache.get_payload(path))
        except ResolveMiss as miss:
            raise FSError(ENOTDIR if miss.not_dir else ENOENT, path) from None
        except NoNodeError:
            raise (yield from self._resolve_error(path)) from None
        except ZKError as exc:
            raise _map_zk_error(exc, path) from None

    def _resolve_error(self, path: str) -> Generator:
        """The paper's source's parent walk (the kernel's, before FUSE;
        paid on error paths only). A pending delete of an ancestor is a
        missing directory chain, hence ENOENT."""
        parent = parent_dir(path)
        while parent != "/" and not (self.mdcache.known_dir(parent)
                                     or self.mdcache.known_missing(parent)):
            if self.mdcache.overlay_pending(parent):  # a pending non-dir
                return FSError(ENOTDIR, path)
            self.stats["zk_reads"] += 1
            try:
                data, _ = yield from self.zk.get(parent)
            except ZKError:
                parent = parent_dir(parent)
                continue
            if not isinstance(decode_payload(data), DirPayload):
                return FSError(ENOTDIR, path)
            self.mdcache.note_dir(parent)
            break
        return FSError(ENOENT, path)

    def _require_dir(self, path: str, blame: str) -> Generator:
        """``path`` must exist and be a directory, else the op on
        ``blame`` fails (ENOTDIR for a non-directory): the kernel's dcache
        check before FUSE, one lookup on a cold path."""
        if path == "/" or self.mdcache.known_dir(path):
            return
        payload, _ = yield from self._get_payload(path)
        if not isinstance(payload, DirPayload):
            raise FSError(ENOTDIR, blame)
        self.mdcache.note_dir(path)

    def _lookup(self, path: str) -> Generator:
        """The payload at ``path``, or None when nothing is there."""
        try:
            return (yield from self._get_payload(path))[0]
        except FSError as exc:
            if exc.err != ENOENT:
                raise

    def _check_new_entry(self, path: str) -> Generator:
        """Parent check, plus the one collision provable locally: a
        create of the same name this client still has in flight (only a
        write-behind client ever has one)."""
        if path == "/":
            raise FSError(EINVAL, path, "cannot operate on /")
        yield from self._require_dir(parent_dir(path), path)
        if self.mdcache.overlay_pending(path) == "create":
            raise FSError(EEXIST, path)

    # -- the write path: one op runner, one outcome rule ---------------------
    def _run(self, op: PendingOp, version: int = -1) -> Generator:
        """The one op runner, inline or per drained op: a file create's
        physical file first (so no name ever maps to a missing file), then
        the metadata-service call, then :meth:`_outcome`. Returns None
        when ``op`` landed, else the POSIX error it is owed. The drain
        passes no ``version``: a logged setdata is last-writer-wins."""
        if op.kind == "create" and isinstance(op.payload, FilePayload):
            err = yield from self.files.make(op.payload.fid, op.payload.mode)
            if err is not None:
                self.files.settle(op.payload.fid)
                return err
        try:
            if op.kind == "create":
                yield from self.zk.create(op.path, op.data)
            elif op.kind == "delete":
                yield from self.zk.delete(op.path, is_dir=op.is_dir)
            elif op.kind == "set":
                yield from self.zk.set_data(op.path, op.data, version=version)
            else:                               # a rename's multi
                yield from self.zk.multi(op.data)
            exc = None
        except ZKError as err:
            exc = err
        if (yield from self._outcome(op, exc)):
            return None
        return _map_zk_error(exc, op.path)

    def _commit_sync(self, kind: str, path: str, payload=None,
                     is_dir: bool = False, version: int = -1) -> Generator:
        """Commit-and-wait: run one mutation; raise its POSIX error."""
        return self._settle(PendingOp(
            0, kind, path, b"" if payload is None else payload.encode(),
            payload, is_dir), version)

    def _settle(self, op: PendingOp, version: int = -1) -> Generator:
        """Run ``op`` inline; raise its error when it did not land."""
        err = yield from self._run(op, version)
        if err is not None:
            raise err

    def _commit_async(self, kind: str, path: str, payload=None,
                      is_dir: bool = False, version: int = -1) -> Generator:
        """Write-behind: ack after the local append; a rejection surfaces
        as a deferred error at the next barrier. A file create's physical
        file is the drain's too (the drain owes it). ``version`` is
        dropped: the overlay serves the new value meanwhile."""
        if kind == "create" and isinstance(payload, DirPayload) \
                and self.mdcache.known_dir(path):
            raise FSError(EEXIST, path)     # provable locally: fail now
        return self.wblog.append(
            kind, path, data=b"" if payload is None else payload.encode(),
            payload=payload, is_dir=is_dir)

    def _landed(self, op: PendingOp, exc: ZKError) -> Generator:
        """The one at-least-once outcome rule, consulted by both write
        paths when the service fails a mutation. RPCs are retried, so the
        duplicate of a write whose first attempt landed answers
        NodeExists/NoNode, and an exhausted retry loop (ConnectionLoss)
        leaves the outcome unknown. Returns True when the op's
        post-condition holds (count it as a success), False when it
        provably did not land, None when nobody can tell."""
        retried = self.zk.last_retries > 0
        if op.kind == "delete":
            # The target is gone, which is what a delete wanted. (Without
            # a retry this is a genuine absence.)
            return retried and isinstance(exc, NoNodeError)
        if op.kind == "set":
            return False
        # A create — or a rename, the create of its destination plus the
        # removal of ``op.src``, whose duplicate may also trip over the
        # vanished source.
        duplicate = NodeExistsError if op.src is None \
            else (NodeExistsError, NoNodeError)
        if isinstance(exc, ConnectionLossError):
            # The verification read is paid only where a side effect
            # hangs on the answer: a file create's physical file.
            if op.src is not None or not isinstance(op.payload, FilePayload):
                return None
        elif not (retried and isinstance(exc, duplicate)):
            return False
        self.stats["zk_reads"] += 1
        try:
            data, _ = yield from self.zk.get(op.path)
            if op.src is not None \
                    and (yield from self.zk.exists(op.src)) is not None:
                return False    # the source survives: nothing moved
        except NoNodeError:
            return False
        except ZKError:
            return None
        found = decode_payload(data)
        if isinstance(op.payload, FilePayload):
            # A genuine collision carries somebody else's FID.
            return isinstance(found, FilePayload) \
                and found.fid == op.payload.fid
        if isinstance(op.payload, SymlinkPayload):
            return found == op.payload
        # Any existing directory satisfies mkdir's post-condition.
        return isinstance(found, DirPayload)

    def _outcome(self, op: PendingOp, exc: Optional[ZKError]) -> Generator:
        """Did ``op`` land? Then the physical step that answer calls for,
        never one that could leave a name mapping to no file: a file
        create that *provably* did not land is rolled back before the
        caller hears, a file delete that landed is reclaimed. Either way a
        file create leaves the table of creates in flight."""
        landed = True if exc is None else (yield from self._landed(op, exc))
        if isinstance(op.payload, FilePayload):
            if op.kind == "delete":
                if landed:
                    yield from self._logic(self.params.mapping_cpu)
                yield from self.files.reclaim(op.payload.fid, landed)
            elif op.kind == "create":
                if landed is False:
                    yield from self.files.unlink(op.payload.fid)
                self.files.settle(op.payload.fid)
        return landed

    def _drain_sync(self, *paths) -> Generator:
        """Nothing is acked before it committed: no wait, no errors."""
        return []
        yield  # pragma: no cover - makes this a generator

    def _drain_async(self, *paths) -> Generator:
        """Ordering barrier: wait until every acked mutation committed,
        then pop the deferred errors recorded for ``paths`` (``None`` =
        every path; no path = leave them queued)."""
        yield from self.wblog.barrier()
        return [err for path in paths
                for err in self.wblog.pop_errors(path)]

    def flush(self) -> Generator:
        """Explicit drain barrier (``close`` of the metadata stream): wait
        until every write-behind mutation committed, then hand over the
        deferred errors as ``(path, FSError)`` pairs (close-to-open)."""
        errors = yield from self._drain(None)
        return [(op.path, err) for op, err in errors]

    def fsync(self, path: str) -> Generator:
        """Barrier, then raise ``path``'s first deferred error (a delayed
        write failure); other paths' errors stay queued for their own."""
        for _, err in (yield from self._drain(normalize_path(path))):
            raise err
        return True

    # -- directory operations (ZooKeeper only) ------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        """Paper Fig. 5."""
        path = normalize_path(path)
        yield from self._logic(self.params.znode_codec_cpu)
        yield from self._check_new_entry(path)
        yield from self._commit("create", path, DirPayload(mode))
        self.mdcache.note_created(path, is_dir=True)
        return True

    def rmdir(self, path: str) -> Generator:
        path = normalize_path(path)
        if path == "/":
            raise FSError(EINVAL, path, "cannot operate on /")
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if not isinstance(payload, DirPayload):
            raise FSError(ENOTDIR, path)
        yield from self._commit("delete", path, is_dir=True)
        self.mdcache.note_removed(path)
        return True

    def readdir(self, path: str) -> Generator:
        path = normalize_path(path)
        yield from self._logic()
        try:
            names = yield from self.mdcache.get_children(path)
        except NoNodeError:
            raise (yield from self._resolve_error(path)) from None
        except ZKError as exc:
            raise _map_zk_error(exc, path) from None
        if not names:
            # The kernel's opendir type check. Any znode lists; only an
            # empty listing can belong to a file or symlink.
            yield from self._require_dir(path, path)
        # readdir-plus: fetch child types in parallel (FUSE fill_dir).
        prefix = path if path != "/" else ""
        lookups = yield from self.node.gather(
            self._lookup(f"{prefix}/{n}") for n in names)
        out = []
        for name, lookup in zip(names, lookups):
            payload = lookup.result()
            if payload is not None:     # else: deleted since the listing
                out.append(DirEntry(name, isinstance(payload, DirPayload)))
        return out

    # -- stat (paper Fig. 6) -----------------------------------------------------
    def stat(self, path: str) -> Generator:
        """Fig. 6, its two steps overlapped when this mount made ``path``
        and has not stat'ed it since: the back-end stat of the FID it made
        runs in a child beside the znode read. The znode is the authority:
        unless it names that FID, the stat waits the child out."""
        path = normalize_path(path)
        yield from self._logic(self.params.znode_codec_cpu)
        if path == "/":
            return StatResult(st_mode=DEFAULT_DIR_MODE, st_ino=1, st_nlink=2)
        hint = self.files.take_hint(path)
        early = None if hint is None else self.node.shielded(
            self._stat_fid(hint), "dufs-stat")
        try:
            payload, zstat = yield from self._get_payload(path)
        except FSError:
            if early is not None:
                yield early
            raise
        outcome = None if early is None else (yield early)
        if isinstance(payload, DirPayload):
            # Satisfied at the ZooKeeper level (no back-end contact).
            return StatResult(
                st_mode=S_IFDIR | payload.mode, st_uid=payload.uid,
                st_ino=zstat.czxid & 0x7FFFFFFF, st_gid=payload.gid,
                st_nlink=2 + zstat.num_children, st_size=0,
                st_atime=zstat.mtime or zstat.ctime,
                st_mtime=zstat.mtime or zstat.ctime,
                st_ctime=zstat.ctime)
        if isinstance(payload, SymlinkPayload):
            return StatResult(st_mode=S_IFLNK | 0o777,
                              st_ino=zstat.czxid & 0x7FFFFFFF,
                              st_size=len(payload.target),
                              st_atime=zstat.ctime, st_mtime=zstat.ctime,
                              st_ctime=zstat.ctime)
        st = outcome.result() if hint == payload.fid \
            else (yield from self._stat_fid(payload.fid))
        if st is None:      # read-your-writes, the file not yet made
            return StatResult(st_mode=S_IFREG | (payload.mode & 0o7777),
                              st_atime=zstat.ctime, st_mtime=zstat.ctime,
                              st_ctime=zstat.ctime)
        return st

    def _stat_fid(self, fid: int) -> Generator:
        """Fig. 6's second step: the physical file's attributes, or None
        while the drain still owes the file."""
        yield from self._logic(self.params.mapping_cpu)
        st = yield from self.files.call(fid, "stat")
        if st is not None:
            st.st_mode = S_IFREG | (st.st_mode & 0o7777)
        return st

    def access(self, path: str, mode: int = 0) -> Generator:
        yield from self.stat(path)
        return True

    # -- file operations -----------------------------------------------------
    def create(self, path: str, mode: int = FILE_MODE) -> Generator:
        path = normalize_path(path)
        yield from self._logic(self.params.fid_generate_cpu,
                               self.params.mapping_cpu,
                               self.params.znode_codec_cpu)
        yield from self._check_new_entry(path)
        fid = yield from self.files.new_fid(path, mode)
        # The op runner makes the physical file (steps C/D) unless a spare
        # did, then publishes name->FID, or rolls the file back.
        yield from self._commit("create", path, FilePayload(fid, mode))
        self.files.hint(path, fid)
        self.mdcache.note_created(path)
        return True

    def unlink(self, path: str) -> Generator:
        path = normalize_path(path)
        if path == "/":
            raise FSError(EINVAL, path, "cannot operate on /")
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            raise FSError(EISDIR, path)
        if isinstance(payload, FilePayload):    # fail before the name goes
            self.files.unname(payload.fid, path)
        # _outcome reclaims the physical file once the name is gone.
        yield from self._commit("delete", path, payload)
        self.mdcache.note_removed(path)
        self.files.forget(path)
        return True

    def _resolve_file(self, path: str, flags: int = 0) -> Generator:
        """Paper Fig. 3 steps A-D; returns the FID of the file opened.
        Follows at most ``MAXSYMLINKS`` symlinks, then fails with ELOOP."""
        for _ in range(MAXSYMLINKS + 1):
            path = normalize_path(path)
            yield from self._logic(self.params.znode_codec_cpu,
                                   self.params.mapping_cpu)
            payload, _ = yield from self._get_payload(path)
            if isinstance(payload, DirPayload):
                raise FSError(EISDIR, path)
            if not isinstance(payload, SymlinkPayload):
                yield from self.files.call(payload.fid, "open", flags)
                return payload.fid
            path = payload.target
        raise FSError(ELOOP, path)

    def open(self, path: str, flags: int = 0) -> Generator:
        """Open and register a file handle. The FID resolution happens
        exactly once here; pread/pwrite through the handle never contact
        ZooKeeper again (the indirection of Fig. 2 is fully resolved)."""
        fid = yield from self._resolve_file(path, flags)
        self._next_fh += 1
        fh = self._next_fh
        self._handles[fh] = fid
        return fh

    def release(self, fh: int) -> Generator:
        yield from self._logic()
        self._handle(fh)
        del self._handles[fh]
        return True

    def _handle(self, fh: int) -> int:
        fid = self._handles.get(fh)
        if fid is None:
            raise FSError(EBADF, msg=f"bad file handle {fh}")
        return fid

    def pread(self, fh: int, offset: int, size: int) -> Generator:
        """Read through an open handle — back-end only, no ZooKeeper."""
        return self.files.call(self._handle(fh), "read", offset, size)

    def pwrite(self, fh: int, offset: int, data: bytes) -> Generator:
        return self.files.call(self._handle(fh), "write", offset, data)

    def _path_io(self, method: str, path: str, *args) -> Generator:
        """Path-addressed I/O: Fig. 3 steps A-D, then the back-end call."""
        fid = yield from self._resolve_file(path)
        return (yield from self.files.call(fid, method, *args))

    def read(self, path: str, offset: int, size: int) -> Generator:
        return self._path_io("read", path, offset, size)

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        return self._path_io("write", path, offset, data)

    def truncate(self, path: str, size: int) -> Generator:
        yield from self._path_io("truncate", path, size)
        return True

    def statfs(self) -> Generator:
        """Aggregate statfs over every back-end mount (union semantics)."""
        yield from self._logic()
        total = StatVFS(f_capacity=0)
        for i, be in enumerate(self.backends):
            # Dead back-ends are skipped: the reachable capacity counts.
            if hasattr(be, "statfs") and i not in self.files.degraded:
                total = total.merge((yield from be.statfs()))
        return total

    def chmod(self, path: str, mode: int) -> Generator:
        path = normalize_path(path)
        if path == "/":     # the root's attributes live in no znode
            raise FSError(EINVAL, path, "cannot operate on /")
        yield from self._logic(self.params.znode_codec_cpu)
        payload, zstat = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            new = DirPayload(mode & 0o7777, payload.uid, payload.gid)
            yield from self._commit("set", path, new, version=zstat.version)
            self.mdcache.note_changed(path)
            return True
        if isinstance(payload, SymlinkPayload):
            return True  # chmod on symlinks is a no-op
        yield from self.files.call(payload.fid, "chmod", mode)
        # Best effort: the znode's copy of the back-end's mode.
        try:
            yield from self._commit("set", path,
                                    FilePayload(payload.fid, mode & 0o7777))
        except FSError:
            pass
        self.mdcache.note_changed(path)
        return True

    # -- symlinks (metadata only) ------------------------------------------------
    def symlink(self, target: str, linkpath: str) -> Generator:
        linkpath = normalize_path(linkpath)
        yield from self._logic(self.params.znode_codec_cpu)
        yield from self._check_new_entry(linkpath)
        yield from self._commit("create", linkpath, SymlinkPayload(target))
        self.mdcache.note_created(linkpath)
        return True

    def readlink(self, path: str) -> Generator:
        path = normalize_path(path)
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if not isinstance(payload, SymlinkPayload):
            raise FSError(EINVAL, path, "not a symlink")
        return payload.target

    # -- rename (atomic, data never moves) -----------------------------------
    def rename(self, src: str, dst: str) -> Generator:
        """Atomic move of the subtree at ``src`` (a file or symlink is a
        subtree of one): recreate every znode under the new prefix and
        delete the old ones, in ONE ZooKeeper multi — the whole rename is
        a single total-order event (the Fig. 1 problem never arises)."""
        src, dst = normalize_path(src), normalize_path(dst)
        if "/" in (src, dst):
            raise FSError(EINVAL, "/", "cannot operate on /")
        yield from self._logic(self.params.znode_codec_cpu)
        # An ordering barrier: the multi, and _collect_subtree's raw znode
        # reads, must see every earlier acked mutation committed.
        yield from self._drain()
        payload, zstat = yield from self._get_payload(src)
        if src == dst:
            return True  # POSIX: same-path rename is a no-op (post-check)
        yield from self._require_dir(parent_dir(dst), dst)
        is_dir = isinstance(payload, DirPayload)
        if not is_dir:
            subtree = [(src, payload.encode())]
        elif dst.startswith(src + "/"):
            raise FSError(EINVAL, dst, "rename into own subtree")
        else:
            subtree = yield from self._collect_subtree(src)
        dst_payload = yield from self._lookup(dst)
        ops = []
        if dst_payload is not None:
            if isinstance(dst_payload, DirPayload) != is_dir:
                raise FSError(ENOTDIR if is_dir else EISDIR, dst)
            ops.append(self.zk.op_delete(dst))  # fails NotEmpty if non-empty
        for path, data in subtree:  # parents first
            ops.append(self.zk.op_create(dst + path[len(src):], data))
        for path, _ in reversed(subtree):  # children first
            ops.append(self.zk.op_delete(path))
        # Commit-and-wait whatever the write path: nothing is left behind.
        yield from self._settle(
            PendingOp(0, "rename", dst, ops, payload, is_dir, src))
        if is_dir:
            # Stale: all cached under the old prefix, and all remembered
            # of the target subtree (e.g. the empty directory replaced).
            self.mdcache.invalidate_subtree(src)
            self.mdcache.invalidate_subtree(dst)
        else:
            self.mdcache.note_removed(src)
            self.mdcache.note_removed(dst)
        self.mdcache.note_created(dst, is_dir=is_dir)
        self.files.forget(src, dst)
        # Overwritten file's contents are garbage-collected.
        if isinstance(dst_payload, FilePayload):
            yield from self.files.reclaim(dst_payload.fid)
        return True

    def _collect_subtree(self, root: str) -> Generator:
        """Depth-first (path, payload-bytes) listing of a virtual subtree."""
        out = []
        stack = [root]
        while stack:
            path = stack.pop()
            self.stats["zk_reads"] += 1
            try:
                data, _ = yield from self.zk.get(path)
                names = yield from self.zk.get_children(path)
            except ZKError as exc:
                raise _map_zk_error(exc, path) from None
            out.append((path, data))
            prefix = path if path != "/" else ""
            stack.extend(f"{prefix}/{n}" for n in reversed(sorted(names)))
        out.sort(key=lambda item: item[0].count("/"))  # parents first
        return out
