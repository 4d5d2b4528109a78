"""PVFS2 system-interface client.

No caching whatsoever (PVFS2 semantics): every operation resolves the path
component-by-component with one lookup RPC per component to the owning
server, then performs its object operations. File stats fan out to all
datafile servers in parallel to compute the size, as the 2.8-era sysint
getattr did.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Generator, List, Tuple

from ...errors import (EINVAL, EIO, EISDIR, ENOENT, ENOTDIR, ENOTEMPTY,
                       FSError)
from ...resilience import build_retry, retry_call
from ...sim.node import Node
from ...sim.rpc import RpcAgent, RpcTimeout
from ..base import (
    DirEntry,
    S_IFDIR,
    S_IFLNK,
    S_IFREG,
    StatResult,
    normalize_path,
    path_components,
)
from .server import DIR_T, META_T

_client_seq = itertools.count()


class PVFSClient:
    def __init__(self, fs: "PVFSFS", node: Node):  # noqa: F821
        self.fs = fs
        self.node = node
        self.sim = node.sim
        self.agent = RpcAgent(
            node, f"{fs.name}-cli-{node.name}-{next(_client_seq)}")
        # The fault policy (inert at the back-end default); breakers are
        # per server endpoint — PVFS talks to many.
        self.retry, self.breakers = build_retry(
            node, f"pvfs.client.{self.agent.endpoint}", fs.params.fault)

    # -- plumbing ------------------------------------------------------------
    def _owner(self, handle: int) -> str:
        return self.fs.server_endpoints[handle >> 48]

    def _call(self, endpoint: str, method: str, args, size: int = 144) -> Generator:
        state = self.retry.begin(self.sim.now)
        return retry_call(
            self.sim, self.retry, self.breakers, state,
            pick=lambda: endpoint,
            attempt=lambda ep: self.agent.call(ep, method, args, size=size,
                                               **state.bounds),
            retry_on=(RpcTimeout,),
            gave_up=lambda ep, exc: FSError(
                EIO, msg=f"PVFS server unreachable: {method}"))

    def _pcall(self, calls: List[Tuple[str, str, object]]) -> Generator:
        """Run several server calls in parallel, return results in
        order; a failed call fails the op, once its siblings settled."""
        outcomes = yield from self.node.gather(
            self._call(ep, m, a) for ep, m, a in calls)
        return [outcome.result() for outcome in outcomes]

    def _lookup(self, dir_handle: int, name: str) -> Generator:
        return self._call(self._owner(dir_handle), "lookup",
                          (dir_handle, name), size=128 + len(name))

    def _rmdirent(self, dir_handle: int, name: str) -> Generator:
        return self._call(self._owner(dir_handle), "rmdirent",
                          (dir_handle, name), size=144 + len(name))

    def _resolve(self, path: str) -> Generator:
        """Path -> handle, one lookup RPC per component, no cache."""
        handle = self.fs.root_handle
        for comp in path_components(path):
            handle = yield from self._lookup(handle, comp)
        return handle

    def _resolve_parent(self, path: str) -> Generator:
        comps = path_components(path)
        if not comps:
            raise FSError(EINVAL, path, "cannot operate on /")
        parent = "/" + "/".join(comps[:-1])
        handle = yield from self._resolve(parent)
        return handle, comps[-1]

    def _server_for_new(self, parent_handle: int, name: str) -> str:
        # Stable across processes (Python's str hash is salted).
        key = zlib.crc32(f"{parent_handle}/{name}".encode())
        return self.fs.server_endpoints[key % len(self.fs.server_endpoints)]

    # -- operations ------------------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        path = normalize_path(path)
        parent_handle, name = yield from self._resolve_parent(path)
        new_handle = yield from self._call(
            self._server_for_new(parent_handle, name), "mkdir", mode)
        try:
            yield from self._call(self._owner(parent_handle), "crdirent",
                                  (parent_handle, name, new_handle),
                                  size=144 + len(name))
        except FSError:
            # Racing create: garbage-collect the orphan dir object.
            yield from self._call(self._owner(new_handle), "remove_obj",
                                  new_handle)
            raise
        return True

    def create(self, path: str, mode: int = 0o644) -> Generator:
        path = normalize_path(path)
        parent_handle, name = yield from self._resolve_parent(path)
        # One datafile on every I/O server, allocated in parallel, then the
        # metafile referencing them (the sys-create msgpairarray pattern).
        dfiles = yield from self._pcall(
            [(ep, "create_dfile", None) for ep in self.fs.server_endpoints])
        meta_handle = yield from self._call(
            self._server_for_new(parent_handle, name), "create_meta",
            (mode, tuple(dfiles)))
        try:
            yield from self._call(self._owner(parent_handle), "crdirent",
                                  (parent_handle, name, meta_handle),
                                  size=144 + len(name))
        except FSError:
            removals = [(self._owner(h), "remove_obj", h)
                        for h in (meta_handle, *dfiles)]
            yield from self._pcall(removals)
            raise
        return True

    def _getattr(self, handle: int) -> Generator:
        return (yield from self._call(self._owner(handle), "getattr", handle))

    def stat(self, path: str) -> Generator:
        path = normalize_path(path)
        handle = yield from self._resolve(path)
        kind, mode, size, atime, mtime, ctime, dfiles, nent = \
            yield from self._getattr(handle)
        if kind == DIR_T:
            st_mode = S_IFDIR | (mode & 0o7777)
            nlink = 2 + nent
        else:
            st_mode = (S_IFLNK | 0o777) if self._is_symlink(handle, kind) \
                else S_IFREG | (mode & 0o7777)
            nlink = 1
        st = StatResult(st_mode=st_mode, st_ino=handle, st_nlink=nlink,
                        st_size=size, st_atime=atime, st_mtime=mtime,
                        st_ctime=ctime)
        if kind == META_T and dfiles:
            sizes = yield from self._pcall(
                [(self._owner(h), "dfile_size", h) for h in dfiles])
            st.st_size = sum(sizes)
        return st

    def _is_symlink(self, handle: int, kind: str) -> bool:
        obj = self.fs.servers[handle >> 48].objects.get(handle)
        return obj is not None and obj.target is not None

    def unlink(self, path: str) -> Generator:
        path = normalize_path(path)
        parent_handle, name = yield from self._resolve_parent(path)
        # Must not unlink a directory.
        child = yield from self._lookup(parent_handle, name)
        kind = (yield from self._getattr(child))[0]
        if kind == DIR_T:
            raise FSError(EISDIR, path)
        handle = yield from self._rmdirent(parent_handle, name)
        _, _, _, _, _, _, dfiles, _ = yield from self._getattr(handle)
        removals = [(self._owner(h), "remove_obj", h)
                    for h in (handle, *dfiles)]
        yield from self._pcall(removals)
        return True

    def rmdir(self, path: str) -> Generator:
        path = normalize_path(path)
        parent_handle, name = yield from self._resolve_parent(path)
        handle = yield from self._lookup(parent_handle, name)
        kind, _, _, _, _, _, _, nent = yield from self._getattr(handle)
        if kind != DIR_T:
            raise FSError(ENOTDIR, path)
        if nent:
            raise FSError(ENOTEMPTY, path)
        yield from self._rmdirent(parent_handle, name)
        yield from self._call(self._owner(handle), "remove_obj", handle)
        return True

    def readdir(self, path: str) -> Generator:
        path = normalize_path(path)
        handle = yield from self._resolve(path)
        items = yield from self._call(self._owner(handle), "readdir", handle)
        out = []
        for name, h in items:
            obj = self.fs.servers[h >> 48].objects.get(h)
            out.append(DirEntry(name, obj is not None and obj.kind == DIR_T, h))
        return out

    def rename(self, src: str, dst: str) -> Generator:
        """Two dirent updates; NOT atomic (PVFS2 semantics). Every
        refusal is decided from lookups before either dirent changes."""
        src, dst = normalize_path(src), normalize_path(dst)
        sp_handle, sname = yield from self._resolve_parent(src)
        handle = yield from self._lookup(sp_handle, sname)
        is_dir = (yield from self._getattr(handle))[0] == DIR_T
        dp_handle, dname = yield from self._resolve_parent(dst)
        if is_dir and (dst + "/").startswith(src + "/"):
            raise FSError(EINVAL, dst, "rename into own subtree")
        try:
            old = yield from self._lookup(dp_handle, dname)
        except FSError as e:
            if e.err != ENOENT:
                raise
            old = None
        if old == handle:
            return True             # the same file under both names
        if old is not None:
            kind, _, _, _, _, _, dfiles, nent = yield from self._getattr(old)
            if kind == DIR_T and not is_dir:
                raise FSError(EISDIR, dst)
            if kind != DIR_T and is_dir:
                raise FSError(ENOTDIR, dst)
            if nent:
                raise FSError(ENOTEMPTY, dst)
        yield from self._rmdirent(sp_handle, sname)
        if old is not None:
            # Overwrite: drop the old target (and its datafiles).
            yield from self._rmdirent(dp_handle, dname)
            yield from self._pcall([(self._owner(h), "remove_obj", h)
                                    for h in (old, *dfiles)])
        yield from self._call(self._owner(dp_handle), "crdirent",
                              (dp_handle, dname, handle),
                              size=144 + len(dname))
        return True

    def chmod(self, path: str, mode: int) -> Generator:
        handle = yield from self._resolve(normalize_path(path))
        yield from self._call(self._owner(handle), "setattr", (handle, mode))
        return True

    def truncate(self, path: str, size: int) -> Generator:
        handle = yield from self._resolve(normalize_path(path))
        _, _, _, _, _, _, dfiles, _ = yield from self._getattr(handle)
        if dfiles:
            per = size // len(dfiles)
            yield from self._pcall(
                [(self._owner(h), "truncate_dfile", (h, per)) for h in dfiles])
        return True

    def access(self, path: str, mode: int = 0) -> Generator:
        yield from self.stat(path)
        return True

    def symlink(self, target: str, linkpath: str) -> Generator:
        linkpath = normalize_path(linkpath)
        parent_handle, name = yield from self._resolve_parent(linkpath)
        h = yield from self._call(self._server_for_new(parent_handle, name),
                                  "symlink_obj", target,
                                  size=144 + len(target))
        yield from self._call(self._owner(parent_handle), "crdirent",
                              (parent_handle, name, h), size=144 + len(name))
        return True

    def readlink(self, path: str) -> Generator:
        handle = yield from self._resolve(normalize_path(path))
        return (yield from self._call(self._owner(handle), "readlink", handle))

    def open(self, path: str, flags: int = 0) -> Generator:
        return (yield from self._resolve(normalize_path(path)))

    def read(self, path: str, offset: int, size: int) -> Generator:
        st = yield from self.stat(path)
        return max(0, min(size, st.st_size - offset))

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        handle = yield from self._resolve(normalize_path(path))
        _, _, _, _, _, _, dfiles, _ = yield from self._getattr(handle)
        if not dfiles:
            raise FSError(ENOENT, path, "no datafiles")
        per = (offset + len(data)) // len(dfiles)
        yield from self._pcall(
            [(self._owner(h), "truncate_dfile", (h, per)) for h in dfiles])
        return len(data)
