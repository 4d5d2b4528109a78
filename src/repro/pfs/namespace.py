"""In-memory POSIX namespace engine.

Shared by the local filesystem and the Lustre MDS: an inode table plus a
directory tree, implementing the POSIX error semantics (ENOENT, EEXIST,
ENOTDIR, EISDIR, ENOTEMPTY, EXDEV-free rename, symlinks) that the test
oracle and DUFS both rely on. It is *pure data* — all timing/contention is
modeled by the servers that own a Namespace.
"""

from __future__ import annotations

import stat as statmod
from typing import Dict, List, Optional, Tuple

from ..errors import (
    EEXIST,
    EINVAL,
    EISDIR,
    ELOOP,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    MAXSYMLINKS,
    FSError,
)
from .base import (
    DEFAULT_DIR_MODE,
    S_IFDIR,
    S_IFLNK,
    S_IFREG,
    DirEntry,
    StatResult,
    path_components,
)


class Inode:
    __slots__ = ("ino", "mode", "uid", "gid", "size", "atime", "mtime",
                 "ctime", "nlink", "entries", "symlink_target", "layout",
                 "data")

    def __init__(self, ino: int, mode: int, now: float):
        self.ino = ino
        self.mode = mode
        self.uid = 0
        self.gid = 0
        self.size = 0
        self.atime = now
        self.mtime = now
        self.ctime = now
        self.nlink = 2 if statmod.S_ISDIR(mode) else 1
        self.entries: Optional[Dict[str, int]] = (
            {} if statmod.S_ISDIR(mode) else None)
        self.symlink_target: Optional[str] = None
        self.layout: Tuple = ()      # (oss_index, object_id) pairs (Lustre)
        self.data = b""              # small-file contents (local fs)

    @property
    def is_dir(self) -> bool:
        return self.entries is not None

    def to_stat(self) -> StatResult:
        return StatResult(st_mode=self.mode, st_ino=self.ino,
                          st_nlink=self.nlink, st_uid=self.uid,
                          st_gid=self.gid, st_size=self.size,
                          st_atime=self.atime, st_mtime=self.mtime,
                          st_ctime=self.ctime)


class Namespace:
    """Inode table + directory tree with POSIX semantics."""

    def __init__(self):
        self._next_ino = 1
        self.inodes: Dict[int, Inode] = {}
        self.root = self._alloc(DEFAULT_DIR_MODE, 0.0)
        self._links = 0     # symlinks the lookup in progress is inside

    def _alloc(self, mode: int, now: float) -> Inode:
        ino = self._next_ino
        self._next_ino += 1
        inode = Inode(ino, mode, now)
        self.inodes[ino] = inode
        return inode

    def __len__(self) -> int:
        return len(self.inodes)

    # -- resolution ---------------------------------------------------------
    def lookup(self, path: str, follow: bool = False) -> Inode:
        """Resolve an absolute path to an inode (no symlink chasing unless
        ``follow``; symlinks mid-path are always followed, one level).
        Links nest at most ``MAXSYMLINKS`` deep, then ELOOP."""
        inode = self.root
        comps = path_components(path)
        for i, comp in enumerate(comps):
            if not inode.is_dir:
                raise FSError(ENOTDIR, path)
            nxt = inode.entries.get(comp)
            if nxt is None:
                raise FSError(ENOENT, path)
            inode = self.inodes[nxt]
            if inode.symlink_target is not None and (follow or i < len(comps) - 1):
                if self._links == MAXSYMLINKS:
                    raise FSError(ELOOP, path)
                self._links += 1
                try:
                    inode = self.lookup(inode.symlink_target, follow=True)
                finally:
                    self._links -= 1
        return inode

    def lookup_parent(self, path: str) -> Tuple[Inode, str]:
        comps = path_components(path)
        if not comps:
            raise FSError(EINVAL, path, "cannot operate on /")
        parent_path = "/" + "/".join(comps[:-1])
        parent = self.lookup(parent_path)
        if not parent.is_dir:
            raise FSError(ENOTDIR, path)
        return parent, comps[-1]

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FSError:
            return False

    # -- mutations -----------------------------------------------------------
    def mkdir(self, path: str, mode: int, now: float) -> Inode:
        parent, name = self.lookup_parent(path)
        if name in parent.entries:
            raise FSError(EEXIST, path)
        inode = self._alloc(S_IFDIR | (mode & 0o7777), now)
        parent.entries[name] = inode.ino
        parent.nlink += 1
        parent.mtime = parent.ctime = now
        return inode

    def create(self, path: str, mode: int, now: float) -> Inode:
        parent, name = self.lookup_parent(path)
        if name in parent.entries:
            raise FSError(EEXIST, path)
        inode = self._alloc(S_IFREG | (mode & 0o7777), now)
        parent.entries[name] = inode.ino
        parent.mtime = parent.ctime = now
        return inode

    def symlink(self, target: str, linkpath: str, now: float) -> Inode:
        parent, name = self.lookup_parent(linkpath)
        if name in parent.entries:
            raise FSError(EEXIST, linkpath)
        inode = self._alloc(S_IFLNK | 0o777, now)
        inode.symlink_target = target
        inode.size = len(target)
        parent.entries[name] = inode.ino
        parent.mtime = parent.ctime = now
        return inode

    def readlink(self, path: str) -> str:
        inode = self.lookup(path)
        if inode.symlink_target is None:
            raise FSError(EINVAL, path, "not a symlink")
        return inode.symlink_target

    def rmdir(self, path: str, now: float) -> Inode:
        parent, name = self.lookup_parent(path)
        ino = parent.entries.get(name)
        if ino is None:
            raise FSError(ENOENT, path)
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise FSError(ENOTDIR, path)
        if inode.entries:
            raise FSError(ENOTEMPTY, path)
        del parent.entries[name]
        del self.inodes[ino]
        parent.nlink -= 1
        parent.mtime = parent.ctime = now
        return inode

    def unlink(self, path: str, now: float) -> Inode:
        parent, name = self.lookup_parent(path)
        ino = parent.entries.get(name)
        if ino is None:
            raise FSError(ENOENT, path)
        inode = self.inodes[ino]
        if inode.is_dir:
            raise FSError(EISDIR, path)
        del parent.entries[name]
        inode.nlink -= 1
        if inode.nlink <= 0:
            del self.inodes[ino]
        parent.mtime = parent.ctime = now
        return inode

    def rename(self, src: str, dst: str, now: float) -> None:
        sparent, sname = self.lookup_parent(src)
        ino = sparent.entries.get(sname)
        if ino is None:
            raise FSError(ENOENT, src)
        inode = self.inodes[ino]
        dparent, dname = self.lookup_parent(dst)
        # Moving a directory under itself is invalid.
        if inode.is_dir and (dst + "/").startswith(src + "/"):
            raise FSError(EINVAL, dst, "rename into own subtree")
        existing_ino = dparent.entries.get(dname)
        if existing_ino is not None:
            existing = self.inodes[existing_ino]
            if existing.is_dir:
                if not inode.is_dir:
                    raise FSError(EISDIR, dst)
                if existing.entries:
                    raise FSError(ENOTEMPTY, dst)
                dparent.nlink -= 1
                del self.inodes[existing_ino]
            else:
                if inode.is_dir:
                    raise FSError(ENOTDIR, dst)
                existing.nlink -= 1
                if existing.nlink <= 0:
                    del self.inodes[existing_ino]
        del sparent.entries[sname]
        dparent.entries[dname] = ino
        if inode.is_dir:
            sparent.nlink -= 1
            dparent.nlink += 1
        sparent.mtime = sparent.ctime = now
        dparent.mtime = dparent.ctime = now
        inode.ctime = now

    def chmod(self, path: str, mode: int, now: float) -> Inode:
        inode = self.lookup(path)
        inode.mode = (inode.mode & ~0o7777) | (mode & 0o7777)
        inode.ctime = now
        return inode

    def truncate(self, path: str, size: int, now: float) -> Inode:
        inode = self.lookup(path)
        if inode.is_dir:
            raise FSError(EISDIR, path)
        inode.size = size
        inode.data = inode.data[:size].ljust(size, b"\0") if size else b""
        inode.mtime = inode.ctime = now
        return inode

    def readdir(self, path: str) -> List[DirEntry]:
        inode = self.lookup(path)
        if not inode.is_dir:
            raise FSError(ENOTDIR, path)
        out = []
        for name in sorted(inode.entries):
            child = self.inodes[inode.entries[name]]
            out.append(DirEntry(name, child.is_dir, child.ino))
        return out

    def stat(self, path: str) -> StatResult:
        return self.lookup(path).to_stat()

    # -- bookkeeping -----------------------------------------------------------
    def count_dirs(self) -> int:
        return sum(1 for i in self.inodes.values() if i.is_dir)

    def count_files(self) -> int:
        return sum(1 for i in self.inodes.values()
                   if not i.is_dir and i.symlink_target is None)
