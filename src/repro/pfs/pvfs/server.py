"""PVFS2 server: owns a handle range of directory/metafile/datafile objects.

Mutations are synchronous disk transactions (trove/dbpf + fdatasync),
coalesced only up to ``disk_batch_max`` per sync — the dominant cost of
PVFS2 metadata writes. Request processing parallelism is limited
(``server_cores``), modeling the event-loop architecture of the era.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ...errors import EEXIST, EINVAL, ENOENT, ENOTDIR, ENOTEMPTY, FSError
from ...models.params import PVFSParams
from ...sim.node import Node
from ...sim.rpc import Reply
from ...sim.resources import Resource
from ...svc import Batcher, Service, TraceBus

DIR_T = "dir"
META_T = "meta"
DFILE_T = "dfile"


class _Obj:
    __slots__ = ("handle", "kind", "entries", "dfiles", "mode", "size",
                 "atime", "mtime", "ctime", "target")

    def __init__(self, handle: int, kind: str, now: float, mode: int = 0o755):
        self.handle = handle
        self.kind = kind
        self.entries: Optional[Dict[str, int]] = {} if kind == DIR_T else None
        self.dfiles: Tuple[int, ...] = ()
        self.mode = mode
        self.size = 0
        self.atime = self.mtime = self.ctime = now
        self.target: Optional[str] = None   # symlink target


class PVFSServer:
    def __init__(self, node: Node, endpoint: str, index: int,
                 params: PVFSParams, bus: Optional[TraceBus] = None):
        self.node = node
        self.sim = node.sim
        self.endpoint = endpoint
        self.index = index
        self.params = params
        self.objects: Dict[int, _Obj] = {}
        self._next_handle = (index << 48) + 1
        # Bounded request-processing parallelism, separate from node cores.
        # The gate covers only the CPU phase (the event-loop model: a
        # request never holds a slot while waiting on trove), so it is
        # taken inside :meth:`_work`, not across the whole handler.
        self.workers = Resource(self.sim, params.server_cores)
        # Group-committed sync txns (trove/dbpf + fdatasync).
        self._txn = Batcher(node, f"{endpoint}.txn", self._flush_txns,
                            max_batch=params.disk_batch_max,
                            bus=bus, deployment="pvfs")
        node.on_crash(self._on_crash)
        node.on_recover(self._on_recover)
        self.svc = s = Service(node, endpoint, deployment="pvfs", bus=bus)
        self.agent = self.svc.agent
        s.expose("lookup", self._h_lookup)
        s.expose("getattr", self._h_getattr)
        s.expose("readdir", self._h_readdir)
        s.expose("readlink", self._h_readlink)
        s.expose("dfile_size", self._h_dfile_size)
        s.expose("mkdir", self._h_mkdir)
        s.expose("crdirent", self._h_crdirent)
        s.expose("rmdirent", self._h_rmdirent)
        s.expose("create_meta", self._h_create_meta)
        s.expose("create_dfile", self._h_create_dfile)
        s.expose("remove_obj", self._h_remove_obj)
        s.expose("setattr", self._h_setattr)
        s.expose("symlink_obj", self._h_symlink_obj)
        s.expose("truncate_dfile", self._h_truncate_dfile)

    # -- infrastructure -----------------------------------------------------
    def alloc_handle(self) -> int:
        h = self._next_handle
        self._next_handle += 1
        return h

    def _work(self, cpu: float) -> Generator:
        """Request processing under bounded server parallelism."""
        req = self.workers.request()
        try:
            yield req
            yield from self.node.cpu_work(cpu)
        finally:
            self.workers.release(req)

    def _sync_txn(self) -> Generator:
        """Wait until this mutation's group-committed fdatasync completes."""
        done = self.sim.event()
        self._txn.submit(done)
        yield done

    def _flush_txns(self, batch: List) -> Generator:
        yield from self.node.disk_io(self.params.disk_txn)
        for ev in batch:
            if not ev.triggered:
                ev.succeed()

    def _on_crash(self) -> None:
        # In-flight (un-synced) transactions die with the server; their
        # requesters were interrupted or will time out.
        self._txn.clear()

    def _on_recover(self) -> None:
        # Fresh kick store + txn loop, so a recovered server serves
        # mutations again (objects/handles persist: trove is on disk).
        self._txn.restart()

    def _get(self, handle: int) -> _Obj:
        obj = self.objects.get(handle)
        if obj is None:
            raise FSError(ENOENT, msg=f"handle {handle:#x}")
        return obj

    # -- handlers -----------------------------------------------------------
    def _h_lookup(self, src: str, args: Tuple[int, str]) -> Generator:
        dir_handle, name = args
        yield from self._work(self.params.lookup_cpu)
        obj = self._get(dir_handle)
        if obj.kind != DIR_T:
            raise FSError(ENOTDIR, name)
        h = obj.entries.get(name)
        if h is None:
            raise FSError(ENOENT, name)
        return h

    def _h_getattr(self, src: str, handle: int) -> Generator:
        yield from self._work(self.params.getattr_cpu)
        obj = self._get(handle)
        return Reply((obj.kind, obj.mode, obj.size, obj.atime, obj.mtime,
                      obj.ctime, obj.dfiles,
                      len(obj.entries) if obj.entries is not None else 0),
                     size=144)

    def _h_mkdir(self, src: str, mode: int) -> Generator:
        yield from self._work(self.params.mkdir_cpu)
        h = self.alloc_handle()
        self.objects[h] = _Obj(h, DIR_T, self.sim.now, mode)
        yield from self._sync_txn()
        return h

    def _h_symlink_obj(self, src: str, target: str) -> Generator:
        yield from self._work(self.params.create_meta_cpu)
        h = self.alloc_handle()
        obj = _Obj(h, META_T, self.sim.now, 0o777)
        obj.target = target
        obj.size = len(target)
        self.objects[h] = obj
        yield from self._sync_txn()
        return h

    def _h_readlink(self, src: str, handle: int) -> Generator:
        yield from self._work(self.params.getattr_cpu)
        obj = self._get(handle)
        if obj.target is None:
            raise FSError(EINVAL, msg="not a symlink")
        return obj.target

    def _h_crdirent(self, src: str, args: Tuple[int, str, int]) -> Generator:
        parent_handle, name, handle = args
        yield from self._work(self.params.crdirent_cpu)
        parent = self._get(parent_handle)
        if parent.kind != DIR_T:
            raise FSError(ENOTDIR, name)
        if name in parent.entries:
            raise FSError(EEXIST, name)
        parent.entries[name] = handle
        parent.mtime = parent.ctime = self.sim.now
        yield from self._sync_txn()
        return True

    def _h_rmdirent(self, src: str, args: Tuple[int, str]) -> Generator:
        parent_handle, name = args
        yield from self._work(self.params.crdirent_cpu)
        parent = self._get(parent_handle)
        h = parent.entries.get(name)
        if h is None:
            raise FSError(ENOENT, name)
        del parent.entries[name]
        parent.mtime = parent.ctime = self.sim.now
        yield from self._sync_txn()
        return h

    def _h_create_meta(self, src: str, args) -> Generator:
        mode, dfiles = args if isinstance(args, tuple) else (args, ())
        yield from self._work(self.params.create_meta_cpu)
        h = self.alloc_handle()
        obj = _Obj(h, META_T, self.sim.now, mode)
        obj.dfiles = tuple(dfiles)
        self.objects[h] = obj
        yield from self._sync_txn()
        return h

    def _h_create_dfile(self, src: str, args) -> Generator:
        # Datafile handle allocation is lazily persisted (no fdatasync on
        # the create path) — only metafile and dirent txns are synchronous.
        yield from self._work(self.params.create_dfile_cpu)
        h = self.alloc_handle()
        self.objects[h] = _Obj(h, DFILE_T, self.sim.now)
        return h

    def _h_remove_obj(self, src: str, handle: int) -> Generator:
        yield from self._work(self.params.remove_cpu)
        obj = self.objects.get(handle)
        if obj is not None and obj.kind == DIR_T and obj.entries:
            raise FSError(ENOTEMPTY, msg=f"handle {handle:#x}")
        kind = obj.kind if obj is not None else DFILE_T
        self.objects.pop(handle, None)
        if kind != DFILE_T:
            # Datafile reclamation is deferred (like allocation); only
            # directory/metafile removals are synchronous txns.
            yield from self._sync_txn()
        return True

    def _h_readdir(self, src: str, handle: int) -> Generator:
        obj = self._get(handle)
        if obj.kind != DIR_T:
            raise FSError(ENOTDIR, msg=f"handle {handle:#x}")
        n = len(obj.entries)
        yield from self._work(self.params.readdir_cpu_base
                              + self.params.readdir_cpu_per_entry * n)
        return Reply(sorted(obj.entries.items()), size=96 + 24 * n)

    def _h_setattr(self, src: str, args: Tuple[int, int]) -> Generator:
        handle, mode = args
        yield from self._work(self.params.setattr_cpu)
        obj = self._get(handle)
        obj.mode = (obj.mode & ~0o7777) | (mode & 0o7777)
        obj.ctime = self.sim.now
        yield from self._sync_txn()
        return True

    def _h_dfile_size(self, src: str, handle: int) -> Generator:
        yield from self._work(self.params.getattr_dfile_cpu)
        obj = self._get(handle)
        return obj.size

    def _h_truncate_dfile(self, src: str, args: Tuple[int, int]) -> Generator:
        handle, size = args
        yield from self._work(self.params.setattr_cpu)
        obj = self._get(handle)
        obj.size = size
        obj.mtime = self.sim.now
        yield from self._sync_txn()
        return True
