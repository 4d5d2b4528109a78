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

A DUFS client instance is stateless apart from its FID generator and a
cache of *physical* hash directories it has already ensured on each
back-end (the static layout of §IV-G); crash-restart loses nothing
(§IV-I).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from ..errors import (
    EBADF,
    EEXIST,
    EINVAL,
    EIO,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FSError,
)
from ..models.params import (AsyncParams, CacheParams, DUFSParams,
                             ResolveParams)
from ..pfs.base import (
    DEFAULT_DIR_MODE,
    S_IFDIR,
    S_IFLNK,
    S_IFREG,
    DirEntry,
    StatResult,
    StatVFS,
    normalize_path,
)
from ..mds import as_metadata_service
from ..sim.node import Node
from ..zk.errors import (
    BadVersionError,
    ConnectionLossError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    ZKError,
)
from .fid import FIDGenerator
from .mapping import MappingFunction, physical_dirs, physical_path
from .mdcache import CoherentMDCache, MDCache, ResolveMiss
from .metadata import (
    DirPayload,
    FilePayload,
    SymlinkPayload,
    decode_payload,
)
from .paths import parent_dir
from .wblog import PendingOp, WriteBehindLog, issue


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

    def __init__(
        self,
        node: Node,
        zk,
        backends: Sequence,
        params: Optional[DUFSParams] = None,
        mapping: Optional[MappingFunction] = None,
        client_id: Optional[int] = None,
        layout: str = "amortized",
        cache: Optional[CacheParams] = None,
        bus=None,
        name: Optional[str] = None,
        resolve: Optional[ResolveParams] = None,
        awrite: Optional[AsyncParams] = None,
    ):
        if not backends:
            raise ValueError("DUFS needs at least one back-end mount")
        self.node = node
        self.sim = node.sim
        # The namespace service: a raw ZKClient (wrapped into the paper's
        # single-ensemble service) or any MetadataService — the client
        # programs against the service interface only.
        self.zk = as_metadata_service(zk)
        self.backends = list(backends)
        self.params = params or DUFSParams()
        self.mapping = mapping or MappingFunction(len(backends))
        self.layout = layout
        if self.mapping.n_backends != len(self.backends):
            raise ValueError("mapping size != number of back-ends")
        self.fidgen = FIDGenerator(client_id)
        # Physical hash-directories known to exist, per back-end.
        self._known_dirs: List[set] = [set() for _ in self.backends]
        # Open-file-handle table: open() resolves the FID once (Fig. 3
        # steps A-C); subsequent I/O through the handle goes straight to
        # the back-end with no further ZooKeeper contact.
        self._handles: dict = {}
        self._next_fh = 0
        # Degraded mode (fault tolerance): back-end indices currently
        # marked dead. Ops whose FID maps to one fail fast with EIO while
        # the ZooKeeper namespace keeps serving everything else.
        self.degraded: set = set()
        self.stats = {"ops": 0, "zk_reads": 0, "zk_writes": 0,
                      "backend_ops": 0, "degraded_fails": 0}
        # The read side, assembled once: pending-write overlay → coherent
        # cache (the stage exists only when enabled) → source, the paper's
        # single znode ``get`` or, for a *thin* client, the metadata
        # plane's server-side ``resolve`` (one RPC at any depth). The
        # chain also owns the virtual-directory dcache — the kernel dcache
        # the real prototype gets for free from VFS.
        cache = cache or CacheParams()
        chain = CoherentMDCache if cache.enabled else MDCache
        self.mdcache = chain(node, self.zk, cache, self.stats, bus=bus,
                             endpoint=name or "dufs-client",
                             thin=(resolve or ResolveParams()).enabled)
        # The write path, bound once: commit-and-wait (the paper's client)
        # or write-behind. Op bodies call ``_commit``/``_drain`` and never
        # ask which. The log is constructed ONLY when enabled: it spawns a
        # drain process, and an async-off deployment must schedule no
        # event the paper's client would not.
        self.awrite = awrite or AsyncParams()
        self.wblog: Optional[WriteBehindLog] = None
        self._commit, self._drain = self._commit_sync, self._drain_sync
        if self.awrite.enabled:
            self.wblog = WriteBehindLog(node, self.zk, self.mdcache,
                                        params=self.awrite,
                                        verify=self._verify_drained,
                                        bus=bus,
                                        endpoint=name or "dufs-client")
            self._commit, self._drain = self._commit_async, self._drain_async

    # -- internals ------------------------------------------------------------
    def _logic(self, *costs: float) -> Generator:
        yield from self.node.cpu_work(self.params.client_logic_cpu
                                      + sum(costs))

    # -- degraded mode -------------------------------------------------------
    def mark_backend_down(self, backend: int) -> None:
        """Enter degraded mode for one back-end: only the ``MD5(FID) mod
        N`` slice mapped to it fails (EIO); directory/symlink ops and files
        on other back-ends keep working (paper §IV-I)."""
        self.degraded.add(backend)

    def mark_backend_up(self, backend: int) -> None:
        self.degraded.discard(backend)

    def _backend_call(self, backend: int, method: str, *args) -> Generator:
        """Every physical-filesystem access funnels through here so a dead
        back-end fails the op instead of hanging it."""
        if backend in self.degraded:
            self.stats["degraded_fails"] += 1
            raise FSError(EIO, msg=f"back-end {backend} unavailable "
                                   "(degraded mode)")
        result = yield from getattr(self.backends[backend], method)(*args)
        return result

    def _get_payload(self, path: str) -> Generator:
        """Lookup (step B of Fig. 3): payload + znode stat through the
        chain. A miss is ENOTDIR when the nearest existing ancestor is
        not a directory, else ENOENT: the thin source's reply names that
        ancestor, so the classification costs no extra round trip; the
        paper's source cannot, so the parent walk finds it."""
        try:
            return (yield from self.mdcache.get_payload(path))
        except ResolveMiss as miss:
            raise FSError(ENOTDIR if miss.not_dir else ENOENT, path) from None
        except NoNodeError:
            raise (yield from self._resolve_error(path)) from None
        except ZKError as exc:
            raise _map_zk_error(exc, path) from None

    def _resolve_error(self, path: str) -> Generator:
        """POSIX path-walk error for the paper's source: a missing path is
        ENOTDIR when the nearest existing ancestor is not a directory,
        else ENOENT. (The kernel performs this walk before FUSE; we pay
        the znode reads only on error paths.) Components the walk proves
        absent are handed to the chain, so repeated failing lookups under
        the same missing directory skip the re-probing — a remembered
        absence is only ever a missing *directory* chain, hence ENOENT."""
        parent = parent_dir(path)
        while parent != "/" and not (self.mdcache.known_dir(parent)
                                     or self.mdcache.known_missing(parent)):
            self.stats["zk_reads"] += 1
            try:
                data, _ = yield from self.zk.get(parent)
            except ZKError as exc:
                if isinstance(exc, NoNodeError):
                    self.mdcache.note_missing(parent)
                parent = parent_dir(parent)
                continue
            if not isinstance(decode_payload(data), DirPayload):
                return FSError(ENOTDIR, path)
            self.mdcache.note_dir(parent)
            break
        return FSError(ENOENT, path)

    def _require_dir(self, path: str, blame: str) -> Generator:
        """``path`` must exist and be a directory, else the op on
        ``blame`` fails (ENOTDIR for a non-directory).

        The kernel resolves this from its dcache before FUSE ever sees the
        call; we emulate that with a per-mount cache of known directories,
        falling back to one lookup on a cold path.
        """
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
        yield from self._require_dir(parent_dir(path), path)
        if self.mdcache.overlay_pending(path) == "create":
            raise FSError(EEXIST, path)

    # -- the write path: one commit seam, one outcome rule ------------------
    def _commit_sync(self, kind: str, path: str, payload=None,
                     is_dir: bool = False, version: int = -1) -> Generator:
        """Commit-and-wait: issue one namespace mutation and return once
        the quorum committed it, or raise the POSIX error."""
        op = PendingOp(0, kind, path,
                       b"" if payload is None else payload.encode(),
                       payload, is_dir)
        return self._settle(op, issue(self.zk, op, version))

    def _settle(self, op: PendingOp, attempt: Generator) -> Generator:
        """The synchronous commit seam: await ``attempt`` — ``op`` on its
        way through the metadata service — and decide what a failure
        means, here and nowhere else."""
        try:
            yield from attempt
        except ZKError as exc:
            landed = yield from self._landed(op, exc)
            if landed:
                return
            undo = self._undo(op, landed)
            if undo is not None:
                yield from undo
            raise _map_zk_error(exc, op.path) from None

    def _commit_async(self, kind: str, path: str, payload=None,
                      is_dir: bool = False, version: int = -1) -> Generator:
        """Write-behind: ack after the local append; the log drains in
        the background and a rejection surfaces as a deferred error at
        the next barrier (so the not-empty check of an rmdir happens at
        commit time). ``version`` is dropped: a logged setdata is
        last-writer-wins, the overlay serves the new value meanwhile."""
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

    def _undo(self, op: PendingOp, landed) -> Optional[Generator]:
        """Side effects to take back once an op failed: a file create
        produced a physical file. Only when the znode is *provably*
        absent — a dangling name->FID mapping is worse than an orphaned
        physical file."""
        if landed is False and op.kind == "create" \
                and isinstance(op.payload, FilePayload):
            return self._rollback_physical(*self._locate(op.payload.fid))
        return None

    def _verify_drained(self, op: PendingOp, exc: ZKError) -> Generator:
        """The log's ``verify`` hook: the same rule, after the caller was
        already acked — the rollback is fire-and-forget and the error
        itself is reported at the next barrier, close-to-open style."""
        landed = yield from self._landed(op, exc)
        undo = self._undo(op, landed)
        if undo is not None:
            self.node.spawn(undo, f"wb-rollback{op.seq}")
        return landed

    def _drain_sync(self, *paths) -> Generator:
        """Nothing is ever acked before it committed: no wait, no
        deferred errors."""
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
        """Explicit drain barrier (``fsync``/``close`` of the metadata
        stream): waits until every write-behind mutation committed, then
        returns the deferred errors as ``(path, FSError)`` pairs —
        close-to-open semantics, the caller owns them once returned.
        Synchronous clients return immediately with no errors."""
        errors = yield from self._drain(None)
        return [(op.path, _map_zk_error(exc, op.path)) for op, exc in errors]

    def fsync(self, path: str) -> Generator:
        """Barrier + raise the first deferred error recorded for
        ``path`` (POSIX fsync surfacing a delayed-write failure).
        Errors for other paths stay queued for their own fsync/flush."""
        for op, exc in (yield from self._drain(normalize_path(path))):
            raise _map_zk_error(exc, op.path)
        return True

    def _locate(self, fid: int) -> Tuple[int, str]:
        """Steps C/D of Fig. 3: deterministic mapping, physical path."""
        backend = self.mapping.backend_for(fid)
        return backend, physical_path(fid, self.layout)

    def _ensure_physical_dirs(self, backend: int, fid: int) -> Generator:
        """mkdir -p of the static hash-directory chain (cached)."""
        cache = self._known_dirs[backend]
        for d in physical_dirs(fid, self.layout):
            if d in cache:
                continue
            try:
                yield from self._backend_call(backend, "mkdir", d)
            except FSError as exc:
                if exc.err != EEXIST:
                    raise
            cache.add(d)

    def ensure_physical_dirs(self, backend: int, fid: int) -> Generator:
        """Public alias for migration tooling (repro.core.rebalance)."""
        yield from self._ensure_physical_dirs(backend, fid)

    # -- elastic back-ends ----------------------------------------------------
    def attach_backend_mount(self, mount) -> int:
        """Register a new back-end mount with this client: grows the
        shared mapping ring and the per-back-end caches. Returns the new
        mount's index. (The supported way for rebalance tooling to add
        capacity — callers must not reach into ``mapping``/``backends``
        directly.)"""
        idx = self.mapping.add_backend()
        self.backends.append(mount)
        self._known_dirs.append(set())
        return idx

    # -- directory operations (ZooKeeper only) ------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        """Paper Fig. 5."""
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        yield from self._check_new_entry(path)
        self.stats["zk_writes"] += 1
        yield from self._commit("create", path, DirPayload(mode))
        self.mdcache.note_created(path, is_dir=True)
        return True

    def rmdir(self, path: str) -> Generator:
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if not isinstance(payload, DirPayload):
            raise FSError(ENOTDIR, path)
        self.stats["zk_writes"] += 1
        yield from self._commit("delete", path, is_dir=True)
        self.mdcache.note_removed(path)
        return True

    def readdir(self, path: str) -> Generator:
        path = normalize_path(path)
        self.stats["ops"] += 1
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
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        if path == "/":
            return StatResult(st_mode=DEFAULT_DIR_MODE, st_ino=1, st_nlink=2)
        payload, zstat = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            # Satisfied at the ZooKeeper level (no back-end contact).
            return StatResult(
                st_mode=S_IFDIR | payload.mode,
                st_ino=zstat.czxid & 0x7FFFFFFF,
                st_nlink=2 + zstat.num_children,
                st_uid=payload.uid, st_gid=payload.gid,
                st_size=0,
                st_atime=zstat.mtime or zstat.ctime,
                st_mtime=zstat.mtime or zstat.ctime,
                st_ctime=zstat.ctime)
        if isinstance(payload, SymlinkPayload):
            return StatResult(st_mode=S_IFLNK | 0o777,
                              st_ino=zstat.czxid & 0x7FFFFFFF,
                              st_size=len(payload.target),
                              st_atime=zstat.ctime, st_mtime=zstat.ctime,
                              st_ctime=zstat.ctime)
        yield from self._logic(self.params.mapping_cpu)
        backend, ppath = self._locate(payload.fid)
        self.stats["backend_ops"] += 1
        st = yield from self._backend_call(backend, "stat", ppath)
        st.st_mode = S_IFREG | (st.st_mode & 0o7777)
        return st

    def access(self, path: str, mode: int = 0) -> Generator:
        yield from self.stat(path)
        return True

    # -- file operations -----------------------------------------------------
    def create(self, path: str, mode: int = 0o644) -> Generator:
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.fid_generate_cpu,
                               self.params.mapping_cpu,
                               self.params.znode_codec_cpu)
        yield from self._check_new_entry(path)
        fid = self.fidgen.next()
        backend, ppath = self._locate(fid)
        yield from self._ensure_physical_dirs(backend, fid)
        self.stats["backend_ops"] += 1
        yield from self._backend_call(backend, "create", ppath, mode)
        # The physical file exists (steps C/D); publish name->FID. A
        # commit that provably failed rolls the physical file back.
        self.stats["zk_writes"] += 1
        yield from self._commit("create", path, FilePayload(fid, mode))
        self.mdcache.note_created(path)
        return True

    def _rollback_physical(self, backend: int, ppath: str) -> Generator:
        try:
            yield from self._backend_call(backend, "unlink", ppath)
        except FSError:
            pass

    def unlink(self, path: str) -> Generator:
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            raise FSError(EISDIR, path)
        self.stats["zk_writes"] += 1
        yield from self._commit("delete", path)
        self.mdcache.note_removed(path)
        if isinstance(payload, FilePayload):
            yield from self._logic(self.params.mapping_cpu)
            backend, ppath = self._locate(payload.fid)
            self.stats["backend_ops"] += 1
            try:
                yield from self._backend_call(backend, "unlink", ppath)
            except FSError as exc:
                if exc.err != ENOENT:
                    raise
        return True

    def _resolve_file(self, path: str, flags: int = 0) -> Generator:
        """Paper Fig. 3 steps A-D; returns (backend index, physical path)."""
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu,
                               self.params.mapping_cpu)
        payload, _ = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            raise FSError(EISDIR, path)
        if isinstance(payload, SymlinkPayload):
            result = yield from self._resolve_file(payload.target, flags)
            return result
        backend, ppath = self._locate(payload.fid)
        self.stats["backend_ops"] += 1
        yield from self._backend_call(backend, "open", ppath, flags)
        return (backend, ppath)

    def open(self, path: str, flags: int = 0) -> Generator:
        """Open and register a file handle. The FID resolution happens
        exactly once here; pread/pwrite through the handle never contact
        ZooKeeper again (the indirection of Fig. 2 is fully resolved)."""
        backend, ppath = yield from self._resolve_file(path, flags)
        self._next_fh += 1
        fh = self._next_fh
        self._handles[fh] = (backend, ppath)
        return fh

    def release(self, fh: int) -> Generator:
        yield from self._logic()
        self._handle(fh)
        del self._handles[fh]
        return True

    def _handle(self, fh: int) -> Tuple[int, str]:
        entry = self._handles.get(fh)
        if entry is None:
            raise FSError(EBADF, msg=f"bad file handle {fh}")
        return entry

    def pread(self, fh: int, offset: int, size: int) -> Generator:
        """Read through an open handle — back-end only, no ZooKeeper."""
        backend, ppath = self._handle(fh)
        self.stats["backend_ops"] += 1
        result = yield from self._backend_call(backend, "read", ppath,
                                               offset, size)
        return result

    def pwrite(self, fh: int, offset: int, data: bytes) -> Generator:
        backend, ppath = self._handle(fh)
        self.stats["backend_ops"] += 1
        result = yield from self._backend_call(backend, "write", ppath,
                                               offset, data)
        return result

    def _path_io(self, method: str, path: str, *args) -> Generator:
        """Path-addressed I/O: Fig. 3 steps A-D, then the back-end call."""
        backend, ppath = yield from self._resolve_file(path)
        return (yield from self._backend_call(backend, method, ppath, *args))

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
            if hasattr(be, "statfs"):
                if i in self.degraded:
                    continue  # skip dead back-ends; report reachable capacity
                self.stats["backend_ops"] += 1
                vfs = yield from self._backend_call(i, "statfs")
                total = total.merge(vfs)
        return total

    def chmod(self, path: str, mode: int) -> Generator:
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        payload, zstat = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            new = DirPayload(mode & 0o7777, payload.uid, payload.gid)
            self.stats["zk_writes"] += 1
            yield from self._commit("set", path, new, version=zstat.version)
            self.mdcache.note_changed(path)
            return True
        if isinstance(payload, SymlinkPayload):
            return True  # chmod on symlinks is a no-op
        backend, ppath = self._locate(payload.fid)
        self.stats["backend_ops"] += 1
        yield from self._backend_call(backend, "chmod", ppath, mode)
        # Keep the znode's cached mode in sync (best effort: the back-end
        # holds the authoritative one).
        self.stats["zk_writes"] += 1
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
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        yield from self._check_new_entry(linkpath)
        self.stats["zk_writes"] += 1
        yield from self._commit("create", linkpath, SymlinkPayload(target))
        self.mdcache.note_created(linkpath)
        return True

    def readlink(self, path: str) -> Generator:
        path = normalize_path(path)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if not isinstance(payload, SymlinkPayload):
            raise FSError(EIO, path, "not a symlink")
        return payload.target

    # -- rename (atomic, data never moves) -----------------------------------
    def rename(self, src: str, dst: str) -> Generator:
        """Atomic move of the subtree at ``src`` (a file or symlink is a
        subtree of one): recreate every znode under the new prefix and
        delete the old ones, in ONE ZooKeeper multi — the whole rename is
        a single total-order event (the Fig. 1 problem never arises)."""
        src, dst = normalize_path(src), normalize_path(dst)
        self.stats["ops"] += 1
        yield from self._logic(self.params.znode_codec_cpu)
        # Rename is an ordering barrier: its multi must observe every
        # earlier acked mutation as committed state (and _collect_subtree
        # reads raw znodes, which the overlay cannot answer for).
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
        self.stats["zk_writes"] += 1
        # Commit-and-wait whatever the write path (the barrier above
        # left nothing to order behind).
        yield from self._settle(
            PendingOp(0, "rename", dst, subtree[0][1], payload, is_dir, src),
            self.zk.multi(ops))
        if is_dir:
            # Everything cached under the old prefix is now stale, and so
            # is anything remembered about the target subtree (e.g.
            # negative entries for paths the move just created).
            self.mdcache.invalidate_subtree(src)
            self.mdcache.invalidate_subtree(dst)
        else:
            self.mdcache.note_removed(src)
            self.mdcache.note_removed(dst)
        self.mdcache.note_created(dst, is_dir=is_dir)
        # Overwritten file's contents are garbage-collected.
        if isinstance(dst_payload, FilePayload):
            backend, ppath = self._locate(dst_payload.fid)
            self.stats["backend_ops"] += 1
            yield from self._rollback_physical(backend, ppath)
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
