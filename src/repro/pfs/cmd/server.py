"""CMD metadata servers and the global lock server.

Each directory (its entry table and its children's attributes) lives on
the MDS selected by a deterministic hash of the directory path. Operations
confined to one server take the fast path; operations spanning servers
(a mkdir whose new directory hashes elsewhere than its parent, renames
across directories) must hold the **global lock** for the duration of the
multi-server update — the serialization the paper predicts will "hurt the
throughput of metadata operations".
"""

from __future__ import annotations

import zlib
from typing import Dict, Generator, Optional, Tuple

from ...errors import (
    EEXIST,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FSError,
)
from ...models.params import LustreParams
from ...sim.node import Node
from ...sim.resources import Resource
from ...sim.rpc import Reply
from ...svc import Service, TraceBus
from ..base import DEFAULT_DIR_MODE, S_IFDIR, S_IFREG, DirEntry, StatResult


def owner_index(path: str, n: int) -> int:
    """Deterministic directory-to-MDS placement."""
    return zlib.crc32(path.encode()) % n


class _Dirent:
    __slots__ = ("is_dir", "mode", "size", "mtime", "ctime", "nlink")

    def __init__(self, is_dir: bool, mode: int, now: float):
        self.is_dir = is_dir
        self.mode = mode
        self.size = 0
        self.mtime = self.ctime = now
        self.nlink = 2 if is_dir else 1


class GlobalLockServer:
    """The CMD design's global lock: one resource, cluster-wide."""

    def __init__(self, node: Node, endpoint: str, params: LustreParams,
                 bus: Optional[TraceBus] = None):
        self.node = node
        self.sim = node.sim
        self.params = params
        self.lock = Resource(self.sim, 1)
        self.svc = Service(node, endpoint, deployment="cmd", bus=bus)
        self.agent = self.svc.agent
        self.svc.expose("acquire", self._h_acquire)
        self.svc.expose_fast("release", self._f_release)
        self._held: Dict[int, object] = {}
        self._next_token = 0
        self.stats = {"acquisitions": 0}

    def _h_acquire(self, src: str, args) -> Generator:
        yield from self.node.cpu_work(self.params.lock_grant_cpu)
        req = self.lock.request()
        yield req
        self._next_token += 1
        token = self._next_token
        self._held[token] = req
        self.stats["acquisitions"] += 1
        return token

    def _f_release(self, src: str, token: int) -> None:
        req = self._held.pop(token, None)
        if req is not None:
            self.lock.release(req)


class CMDServer:
    """One clustered-MDS member: owns the directories that hash to it."""

    def __init__(self, node: Node, endpoint: str, index: int, n_servers: int,
                 params: LustreParams, bus: Optional[TraceBus] = None):
        self.node = node
        self.sim = node.sim
        self.endpoint = endpoint
        self.index = index
        self.n_servers = n_servers
        self.params = params
        # dir path -> {name: _Dirent}; attributes live with the parent.
        self.dirs: Dict[str, Dict[str, _Dirent]] = {}
        if index == owner_index("/", n_servers):
            self.dirs["/"] = {}
        self.svc = s = Service(node, endpoint, deployment="cmd", bus=bus)
        self.agent = self.svc.agent
        s.expose("lookup", self._h_lookup)
        s.expose("getattr_entry", self._h_getattr_entry)
        s.expose("readdir", self._h_readdir)
        s.expose("insert", self._h_insert, write=True)
        s.expose("remove", self._h_remove, write=True)
        s.expose("adopt_dir", self._h_adopt_dir, write=True)
        s.expose("drop_dir", self._h_drop_dir, write=True)
        s.expose("set_mode", self._h_set_mode, write=True)
        s.expose("set_size", self._h_set_size, write=True)

    def _charge(self, cost: float) -> Generator:
        thrash = 1.0 + self.params.thrash_coef * \
            (len(self.node.cpu.queue) + len(self.node.cpu.users)) / \
            self.params.thrash_norm / self.n_servers
        yield from self.node.cpu_work(cost * thrash)

    def _table(self, dirpath: str) -> Dict[str, _Dirent]:
        table = self.dirs.get(dirpath)
        if table is None:
            raise FSError(ENOENT, dirpath)
        return table

    # -- read ops -----------------------------------------------------------
    def _h_lookup(self, src: str, args: Tuple[str, str]) -> Generator:
        dirpath, name = args
        yield from self._charge(self.params.lookup_cpu)
        ent = self._table(dirpath).get(name)
        if ent is None:
            raise FSError(ENOENT, f"{dirpath}/{name}")
        return ent.is_dir

    def _h_getattr_entry(self, src: str, args: Tuple[str, str]) -> Generator:
        dirpath, name = args
        yield from self._charge(self.params.getattr_cpu)
        if name == "":
            if dirpath not in self.dirs:
                raise FSError(ENOENT, dirpath)
            return Reply(StatResult(st_mode=DEFAULT_DIR_MODE, st_nlink=2),
                         size=144)
        ent = self._table(dirpath).get(name)
        if ent is None:
            raise FSError(ENOENT, f"{dirpath}/{name}")
        mode = (S_IFDIR if ent.is_dir else S_IFREG) | (ent.mode & 0o7777)
        return Reply(StatResult(st_mode=mode, st_size=ent.size,
                                st_nlink=ent.nlink, st_mtime=ent.mtime,
                                st_ctime=ent.ctime), size=144)

    def _h_readdir(self, src: str, dirpath: str) -> Generator:
        table = self._table(dirpath)
        yield from self._charge(self.params.readdir_cpu_base
                                + self.params.readdir_cpu_per_entry
                                * len(table))
        out = [DirEntry(name, ent.is_dir) for name, ent in
               sorted(table.items())]
        return Reply(out, size=96 + 24 * len(out))

    # -- mutations ------------------------------------------------------------
    def _h_insert(self, src: str, args) -> Generator:
        dirpath, name, is_dir, mode = args
        yield from self._charge(self.params.create_cpu)
        table = self._table(dirpath)
        if name in table:
            raise FSError(EEXIST, f"{dirpath}/{name}")
        table[name] = _Dirent(is_dir, mode, self.sim.now)
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_remove(self, src: str, args) -> Generator:
        dirpath, name, want_dir = args
        yield from self._charge(self.params.unlink_cpu)
        table = self._table(dirpath)
        ent = table.get(name)
        if ent is None:
            raise FSError(ENOENT, f"{dirpath}/{name}")
        if want_dir and not ent.is_dir:
            raise FSError(ENOTDIR, f"{dirpath}/{name}")
        if not want_dir and ent.is_dir:
            raise FSError(EISDIR, f"{dirpath}/{name}")
        del table[name]
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_adopt_dir(self, src: str, args) -> Generator:
        """Create the directory object for a path this server owns."""
        (dirpath,) = args
        yield from self._charge(self.params.mkdir_cpu * 0.5)
        if dirpath in self.dirs:
            raise FSError(EEXIST, dirpath)
        self.dirs[dirpath] = {}
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_drop_dir(self, src: str, args) -> Generator:
        (dirpath,) = args
        yield from self._charge(self.params.rmdir_cpu * 0.5)
        table = self.dirs.get(dirpath)
        if table is None:
            raise FSError(ENOENT, dirpath)
        if table:
            raise FSError(ENOTEMPTY, dirpath)
        del self.dirs[dirpath]
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_set_mode(self, src: str, args) -> Generator:
        dirpath, name, mode = args
        yield from self._charge(self.params.setattr_cpu)
        ent = self._table(dirpath).get(name)
        if ent is None:
            raise FSError(ENOENT, f"{dirpath}/{name}")
        ent.mode = mode & 0o7777
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_set_size(self, src: str, args) -> Generator:
        dirpath, name, size = args
        yield from self._charge(self.params.setattr_cpu)
        ent = self._table(dirpath).get(name)
        if ent is None:
            raise FSError(ENOENT, f"{dirpath}/{name}")
        ent.size = size
        ent.mtime = self.sim.now
        yield self.sim.timeout(self.params.journal_delay)
        return True
