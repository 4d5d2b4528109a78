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

A DUFS client instance keeps nothing the namespace needs: its FID
generator, the *physical* hash directories it has ensured (the static
layout of §IV-G), FID hints ``stat`` never trusts and its spares, files
no name maps to yet; crash-restart loses nothing (§IV-I), and a crash
leaves at most the spares and the creates in flight as unreferenced
files. The mount makes the chain all of an instance's FIDs share: a
create that races it waits for it, and one makes the chain itself only
after a mount mkdir failed.

Both write paths run each mutation through one op runner (``_run``):
a file create's physical file (unless a spare made it, ``_new_fid``),
then the metadata call, then the at-least-once outcome rule. The paper's
client runs it inline before the ack; the write-behind client
(:mod:`repro.core.wblog`) acks once the op is logged and runs it in the
drain, so a create's back-end call is off the ack too. Until the drain
has made such a file, back-end calls on it wait for it and ``stat``
answers from the pending create.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from ..errors import (
    EBADF,
    EEXIST,
    EINVAL,
    EIO,
    EISDIR,
    ELOOP,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    MAXSYMLINKS,
    FSError,
)
from ..models.params import SimParams
from ..pfs.base import (
    DEFAULT_DIR_MODE,
    DEFAULT_FILE_MODE,
    S_IFDIR,
    S_IFLNK,
    S_IFREG,
    DirEntry,
    StatResult,
    StatVFS,
    normalize_path,
)
from ..mds import as_metadata_service
from ..sim.node import Node, Outcome
from ..zk.errors import (
    BadVersionError,
    ConnectionLossError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    ZKError,
)
from .fid import FIDGenerator
from .mapping import (MappingFunction, physical_dirs, physical_path,
                      shared_chain)
from .mdcache import CoherentMDCache, MDCache, ResolveMiss
from .metadata import (
    DirPayload,
    FilePayload,
    SymlinkPayload,
    decode_payload,
)
from .paths import parent_dir
from .wblog import PendingOp, WriteBehindLog


#: What ``/`` looks up as: the root znode carries no DUFS payload.
_ROOT = (DirPayload(DEFAULT_DIR_MODE & 0o7777), None)
#: The mode of a spare's physical file: the one a create asks for by default.
_FILE_MODE = DEFAULT_FILE_MODE & 0o7777


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
        params: Optional[SimParams] = None,
        mapping: Optional[MappingFunction] = None,
        client_id: Optional[int] = None,
        layout: str = "amortized",
        bus=None,
        name: Optional[str] = None,
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
        params = params or SimParams()
        self.params = params.dufs
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
        # Write-behind: physical path -> Event of each file whose physical
        # create the drain still owes. A back-end call on one waits for it.
        self._unmade: dict = {}
        # FID hints (``stat``): path -> FID of each file this mount made,
        # until its first stat, unlink or rename; none beside the cache.
        self._fids: dict = {}
        self._hints = not params.cache.enabled
        # Spares (``_new_fid``; none on a write-behind mount): FID -> the
        # process making its file, oldest first. Each create in flight:
        # FID -> whether a spare made its file.
        self._spares: Optional[dict] = None if params.awrite.enabled else {}
        self._creating: dict = {}
        self._lost: List[int] = []
        self._reclaims: dict = {}   # caller -> its reclaim in flight
        node.on_crash(self._on_crash)
        self.stats = {"zk_reads": 0}
        # The read side, assembled once: pending-write overlay → coherent
        # cache (the stage exists only when enabled) → source, the paper's
        # single znode ``get`` or, for a *thin* client, the metadata
        # plane's server-side ``resolve`` (one RPC at any depth). The
        # chain also owns the virtual-directory dcache — the kernel dcache
        # the real prototype gets for free from VFS.
        chain = CoherentMDCache if params.cache.enabled else MDCache
        self.mdcache = chain(node, self.zk, params.cache, self.stats,
                             bus=bus, endpoint=name or "dufs-client",
                             thin=params.resolve.enabled)
        # The write path, bound once: commit-and-wait (the paper's client)
        # or write-behind, both through the one op runner ``_run``. Op
        # bodies call ``_commit``/``_drain``/``_reclaim`` and never ask
        # which. The log is constructed ONLY when enabled: it hooks the
        # node's crash, and an async-off deployment must run no code the
        # paper's client would not.
        self.wblog: Optional[WriteBehindLog] = None
        self._commit, self._drain, self._reclaim = (
            self._commit_sync, self._drain_sync, self._reclaim_sync)
        if params.awrite.enabled:
            self.wblog = WriteBehindLog(node, self._run, self.mdcache,
                                        params=params.awrite,
                                        bus=bus,
                                        endpoint=name or "dufs-client")
            self._commit, self._drain, self._reclaim = (
                self._commit_async, self._drain_async, self._unlink_physical)
            node.on_crash(self._unmade.clear)   # its waiters died too
        self._mounts = [node.shielded(self._mount_chain(b), "dufs-mount")
                        for b in range(len(self.backends))]

    # -- internals ------------------------------------------------------------
    def _on_crash(self) -> None:
        """Hints and reclaims die with the node; its spares and creates in
        flight may leave files no name reaches (``_lost``)."""
        self._fids.clear()
        self._reclaims.clear()
        self._lost += [*(self._spares or ()), *self._creating]
        self._creating.clear()
        if self._spares:
            self._spares.clear()

    def spare_fids(self) -> Tuple[List[int], List[int]]:
        """The live spares' FIDs, then ``_lost``: for the auditor."""
        return list(self._spares or ()), self._lost

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

    def _require_up(self, backend: int, path: Optional[str] = None) -> None:
        if backend in self.degraded:
            raise FSError(EIO, path, f"back-end {backend} unavailable "
                                     "(degraded mode)")

    def _backend_call(self, backend: int, method: str, *args) -> Generator:
        """Every physical-filesystem access funnels through here so a dead
        back-end fails the op instead of hanging it, and one on a file
        whose physical create the drain still owes waits for that create
        (a create makes a fresh FID's file: it never waits)."""
        self._require_up(backend)
        if self._unmade and method != "create" and args[0] in self._unmade:
            yield self._unmade[args[0]]
        return (yield from getattr(self.backends[backend], method)(*args))

    def _get_payload(self, path: str) -> Generator:
        """Lookup (step B of Fig. 3): payload + znode stat through the
        chain. A miss is ENOTDIR when the nearest existing ancestor is
        not a directory, else ENOENT: the thin source's reply names that
        ancestor, so the classification costs no extra round trip; the
        paper's source cannot, so the parent walk finds it."""
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
        """POSIX path-walk error for the paper's source: a missing path is
        ENOTDIR when the nearest existing ancestor is not a directory,
        else ENOENT. (The kernel performs this walk before FUSE; we pay
        the znode reads only on error paths.) A pending delete of an
        ancestor is a missing directory chain, hence ENOENT."""
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
        if path == "/":
            raise FSError(EINVAL, path, "cannot operate on /")
        yield from self._require_dir(parent_dir(path), path)
        if self.mdcache.overlay_pending(path) == "create":
            raise FSError(EEXIST, path)

    # -- the write path: one op runner, one outcome rule ---------------------
    def _run(self, op: PendingOp, version: int = -1) -> Generator:
        """The one op runner both write paths call, the synchronous seam
        inline and the write-behind drain per logged op: a file create's
        physical file first (so no name ever maps to a missing file), then
        the metadata-service call, then :meth:`_outcome`. Returns None
        when ``op`` landed, else the POSIX error it is owed. The drain
        passes no ``version``: a logged setdata is last-writer-wins. A
        spare's file is made already."""
        if op.kind == "create" and isinstance(op.payload, FilePayload) \
                and not self._creating.get(op.payload.fid):
            err = yield from self._make_file(op.payload)
            if err is not None:
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

    def _make_file(self, payload: FilePayload) -> Generator:
        """Steps C/D of Fig. 3: the hash-directory chain, then the
        back-end create. Wakes the back-end calls waiting for the file
        and returns the FSError when it could not be made."""
        backend, ppath = self._locate(payload.fid)
        try:
            yield from self.ensure_physical_dirs(backend, payload.fid)
            yield from self._backend_call(backend, "create", ppath,
                                          payload.mode)
            err = None
        except FSError as exc:
            err = exc
        made = self._unmade.pop(ppath, None)
        if made is not None:
            made.succeed()
        return err

    def _commit_sync(self, kind: str, path: str, payload=None,
                     is_dir: bool = False, version: int = -1) -> Generator:
        """Commit-and-wait: run one namespace mutation and return once
        the quorum committed it, or raise the POSIX error."""
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
        """Write-behind: ack after the local append; the log drains in
        the background and a rejection surfaces as a deferred error at
        the next barrier (so the not-empty check of an rmdir happens at
        commit time). A file create's physical file is the drain's too:
        until it exists, back-end calls on it wait. ``version`` is
        dropped: a logged setdata is last-writer-wins, the overlay serves
        the new value meanwhile."""
        if kind == "create" and isinstance(payload, DirPayload) \
                and self.mdcache.known_dir(path):
            raise FSError(EEXIST, path)     # provable locally: fail now
        if kind == "create" and isinstance(payload, FilePayload):
            self._unmade[self._locate(payload.fid)[1]] = self.sim.event()
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
        """The op runner's settle step: did ``op`` land? Then the
        physical step that answer calls for, never one that could leave a
        name mapping to no file (a dangling mapping is worse than an
        orphaned file): a file create that *provably* did not land is
        rolled back before the caller hears, a file delete that landed is
        reclaimed (:meth:`_reclaim`)."""
        landed = True if exc is None else (yield from self._landed(op, exc))
        if isinstance(op.payload, FilePayload):
            if op.kind == "delete" and landed:
                yield from self._logic(self.params.mapping_cpu)
                yield from self._reclaim(op.payload.fid)
            elif op.kind == "create" and landed is False:
                yield from self._unlink_physical(op.payload.fid)
        return landed

    def _drain_sync(self, *paths) -> Generator:
        """Nothing is ever acked before it committed: no wait, no
        deferred errors."""
        return []
        yield  # pragma: no cover - makes this a generator

    def _reclaim_sync(self, fid: int) -> Generator:
        """Unlink the nameless back-end file in its own process, after the
        caller's previous one: a caller overlaps one reclaim with its next
        op, so a back-end slower than the namespace still sets its pace."""
        caller = self.sim.active
        pending = self._reclaims.get(caller)
        if pending is not None:
            yield pending
        self._reclaims[caller] = self.node.shielded(
            self._reclaim_for(caller, fid), "dufs-reclaim")

    def _reclaim_for(self, caller, fid: int) -> Generator:
        yield from self._unlink_physical(fid)
        self._reclaims.pop(caller, None)

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
        return [(op.path, err) for op, err in errors]

    def fsync(self, path: str) -> Generator:
        """Barrier + raise the first deferred error recorded for
        ``path`` (POSIX fsync surfacing a delayed-write failure).
        Errors for other paths stay queued for their own fsync/flush."""
        for _, err in (yield from self._drain(normalize_path(path))):
            raise err
        return True

    def _locate(self, fid: int) -> Tuple[int, str]:
        """Steps C/D of Fig. 3: deterministic mapping, physical path."""
        backend = self.mapping.backend_for(fid)
        return backend, physical_path(fid, self.layout)

    def ensure_physical_dirs(self, backend: int, fid: int) -> Generator:
        """mkdir -p of the static hash-directory chain (cached) each
        physical create runs. One that races the mount waits for it
        instead of sending the same mkdirs beside it."""
        if not self._mounts[backend].triggered:
            yield self._mounts[backend]
        yield from self._make_dirs(backend, physical_dirs(fid, self.layout))

    def _make_dirs(self, backend: int, dirs: List[str]) -> Generator:
        """mkdir each of ``dirs`` not yet known on ``backend``; cached once
        made or found."""
        cache = self._known_dirs[backend]
        for d in dirs:
            if d in cache:
                continue
            try:
                yield from self._backend_call(backend, "mkdir", d)
            except FSError as exc:
                if exc.err != EEXIST:
                    raise
            cache.add(d)

    def _mount_chain(self, backend: int) -> Generator:
        """The mount's process: make on ``backend`` the chain all FIDs of
        this instance share, under its layout when this runs. Shielded: a
        failure is the first create's."""
        yield from self._make_dirs(
            backend, shared_chain(self.fidgen.client_id, self.layout))

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
        hint = self._fids.pop(path, None)
        if hint is not None and self._unmade \
                and self._locate(hint)[1] in self._unmade:
            hint = None     # the drain still owes it: no stat to overlap
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
        backend, ppath = self._locate(fid)
        if ppath in self._unmade:
            return None
        st = yield from self._backend_call(backend, "stat", ppath)
        st.st_mode = S_IFREG | (st.st_mode & 0o7777)
        return st

    def access(self, path: str, mode: int = 0) -> Generator:
        yield from self.stat(path)
        return True

    # -- file operations -----------------------------------------------------
    def create(self, path: str, mode: int = _FILE_MODE) -> Generator:
        path = normalize_path(path)
        yield from self._logic(self.params.fid_generate_cpu,
                               self.params.mapping_cpu,
                               self.params.znode_codec_cpu)
        yield from self._check_new_entry(path)
        fid = yield from self._new_fid(path, mode)
        # The op runner makes the physical file (steps C/D) unless a spare
        # did, then publishes name->FID; a commit that provably failed
        # rolls the physical file back.
        try:
            yield from self._commit("create", path, FilePayload(fid, mode))
        finally:
            self._creating.pop(fid, None)
        self.mdcache.note_created(path)
        if self._hints:
            self._fids[path] = fid
        return True

    def _new_fid(self, path: str, mode: int) -> Generator:
        """The new file's FID, entered in ``_creating``: a sync mount's
        default-mode create takes the oldest spare (waiting while it is
        made) and starts the next, so the pool never outgrows the peak of
        concurrent creates. A fresh FID, whose file the op runner makes,
        when the pool is empty or the spare failed; and, the pool left as
        it was, for another mode, a write-behind mount or an oldest spare
        on a degraded back-end."""
        spares = self._spares if mode == _FILE_MODE else None
        fid = next(iter(spares or ()), None)
        if spares is None or fid is not None \
                and self.mapping.backend_for(fid) in self.degraded:
            return self._fresh_fid(path)
        if fid is not None:
            self._creating[fid] = True
            if (yield spares.pop(fid)) != Outcome():
                del self._creating[fid]     # it made no file
                fid = None
        fid = self._fresh_fid(path) if fid is None else fid
        spare = self.fidgen.next()
        spares[spare] = self.node.shielded(
            self._make_file(FilePayload(spare, _FILE_MODE)), "dufs-spare")
        return fid

    def _fresh_fid(self, path: str) -> int:
        fid = self.fidgen.next()
        self._require_up(self.mapping.backend_for(fid), path)
        self._creating[fid] = False
        return fid

    def _unlink_physical(self, fid: int) -> Generator:
        """Best effort: a failure leaves an orphan, not an error."""
        backend, ppath = self._locate(fid)
        try:
            yield from self._backend_call(backend, "unlink", ppath)
        except FSError:
            pass

    def unlink(self, path: str) -> Generator:
        path = normalize_path(path)
        if path == "/":
            raise FSError(EINVAL, path, "cannot operate on /")
        yield from self._logic(self.params.znode_codec_cpu)
        payload, _ = yield from self._get_payload(path)
        if isinstance(payload, DirPayload):
            raise FSError(EISDIR, path)
        if isinstance(payload, FilePayload):    # fail before the name goes
            self._require_up(self.mapping.backend_for(payload.fid), path)
        # _outcome's _reclaim unlinks the physical file once the name is gone.
        yield from self._commit("delete", path, payload)
        self.mdcache.note_removed(path)
        self._fids.pop(path, None)
        return True

    def _resolve_file(self, path: str, flags: int = 0) -> Generator:
        """Paper Fig. 3 steps A-D; returns (backend index, physical path).
        Follows at most ``MAXSYMLINKS`` symlinks, then fails with ELOOP."""
        for _ in range(MAXSYMLINKS + 1):
            path = normalize_path(path)
            yield from self._logic(self.params.znode_codec_cpu,
                                   self.params.mapping_cpu)
            payload, _ = yield from self._get_payload(path)
            if isinstance(payload, DirPayload):
                raise FSError(EISDIR, path)
            if not isinstance(payload, SymlinkPayload):
                backend, ppath = self._locate(payload.fid)
                yield from self._backend_call(backend, "open", ppath, flags)
                return (backend, ppath)
            path = payload.target
        raise FSError(ELOOP, path)

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
        result = yield from self._backend_call(backend, "read", ppath,
                                               offset, size)
        return result

    def pwrite(self, fh: int, offset: int, data: bytes) -> Generator:
        backend, ppath = self._handle(fh)
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
                vfs = yield from be.statfs()
                total = total.merge(vfs)
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
        backend, ppath = self._locate(payload.fid)
        yield from self._backend_call(backend, "chmod", ppath, mode)
        # Keep the znode's cached mode in sync (best effort: the back-end
        # holds the authoritative one).
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
        # Commit-and-wait whatever the write path (the barrier above
        # left nothing to order behind).
        yield from self._settle(
            PendingOp(0, "rename", dst, ops, payload, is_dir, src))
        if is_dir:
            # Everything cached under the old prefix is now stale, and so
            # is anything remembered about the target subtree (e.g. the
            # empty directory the move replaced).
            self.mdcache.invalidate_subtree(src)
            self.mdcache.invalidate_subtree(dst)
        else:
            self.mdcache.note_removed(src)
            self.mdcache.note_removed(dst)
        self.mdcache.note_created(dst, is_dir=is_dir)
        self._fids.pop(src, None)
        self._fids.pop(dst, None)
        # Overwritten file's contents are garbage-collected.
        if isinstance(dst_payload, FilePayload):
            yield from self._reclaim(dst_payload.fid)
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
