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

from ...errors import (EEXIST, EIO, EISDIR, ENOENT, ENOTDIR, ENOTEMPTY,
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
        self.stats = {"ops": 0, "rpcs": 0}
        # The fault policy (inert at the back-end default); breakers are
        # per server endpoint — PVFS talks to many.
        self.retry, self.breakers = build_retry(
            node, f"pvfs.client.{self.agent.endpoint}", fs.params.fault)

    # -- plumbing ------------------------------------------------------------
    def _owner(self, handle: int) -> str:
        return self.fs.server_endpoints[handle >> 48]

    def _call(self, endpoint: str, method: str, args, size: int = 144) -> Generator:
        self.stats["rpcs"] += 1
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

    def _resolve(self, path: str) -> Generator:
        """Path -> handle, one lookup RPC per component, no cache."""
        handle = self.fs.root_handle
        for comp in path_components(path):
            handle = yield from self._call(self._owner(handle), "lookup",
                                           (handle, comp),
                                           size=128 + len(comp))
        return handle

    def _resolve_parent(self, path: str) -> Generator:
        comps = path_components(path)
        if not comps:
            raise FSError(EISDIR, path, "cannot operate on /")
        parent = "/" + "/".join(comps[:-1])
        handle = yield from self._resolve(parent)
        return handle, comps[-1]

    def _server_for_new(self, parent_handle: int, name: str) -> str:
        # Stable across processes (Python's str hash is salted).
        key = zlib.crc32(f"{parent_handle}/{name}".encode())
        return self.fs.server_endpoints[key % len(self.fs.server_endpoints)]

    # -- operations ------------------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        self.stats["ops"] += 1
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
        self.stats["ops"] += 1
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
        attrs = yield from self._call(self._owner(handle), "getattr", handle)
        return attrs

    def stat(self, path: str) -> Generator:
        self.stats["ops"] += 1
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
        self.stats["ops"] += 1
        path = normalize_path(path)
        parent_handle, name = yield from self._resolve_parent(path)
        # Must not unlink a directory.
        child = yield from self._call(self._owner(parent_handle), "lookup",
                                      (parent_handle, name),
                                      size=128 + len(name))
        kind = (yield from self._getattr(child))[0]
        if kind == DIR_T:
            raise FSError(EISDIR, path)
        handle = yield from self._call(self._owner(parent_handle), "rmdirent",
                                       (parent_handle, name, False),
                                       size=144 + len(name))
        _, _, _, _, _, _, dfiles, _ = yield from self._getattr(handle)
        removals = [(self._owner(h), "remove_obj", h)
                    for h in (handle, *dfiles)]
        yield from self._pcall(removals)
        return True

    def rmdir(self, path: str) -> Generator:
        self.stats["ops"] += 1
        path = normalize_path(path)
        parent_handle, name = yield from self._resolve_parent(path)
        handle = yield from self._call(self._owner(parent_handle), "lookup",
                                       (parent_handle, name),
                                       size=128 + len(name))
        kind, _, _, _, _, _, _, nent = yield from self._getattr(handle)
        if kind != DIR_T:
            raise FSError(ENOTDIR, path)
        if nent:
            raise FSError(ENOTEMPTY, path)
        yield from self._call(self._owner(parent_handle), "rmdirent",
                              (parent_handle, name, True),
                              size=144 + len(name))
        yield from self._call(self._owner(handle), "remove_obj", handle)
        return True

    def readdir(self, path: str) -> Generator:
        self.stats["ops"] += 1
        path = normalize_path(path)
        handle = yield from self._resolve(path)
        items = yield from self._call(self._owner(handle), "readdir", handle)
        out = []
        for name, h in items:
            obj = self.fs.servers[h >> 48].objects.get(h)
            out.append(DirEntry(name, obj is not None and obj.kind == DIR_T, h))
        return out

    def rename(self, src: str, dst: str) -> Generator:
        """Two dirent updates; NOT atomic (PVFS2 semantics)."""
        self.stats["ops"] += 1
        src, dst = normalize_path(src), normalize_path(dst)
        sp_handle, sname = yield from self._resolve_parent(src)
        dp_handle, dname = yield from self._resolve_parent(dst)
        handle = yield from self._call(self._owner(sp_handle), "rmdirent",
                                       (sp_handle, sname, False),
                                       size=144 + len(sname))
        try:
            yield from self._call(self._owner(dp_handle), "crdirent",
                                  (dp_handle, dname, handle),
                                  size=144 + len(dname))
        except FSError as e:
            if e.err == EEXIST:
                # Overwrite: drop the old target (and its datafiles), then
                # retry the insert.
                old = yield from self._call(self._owner(dp_handle), "rmdirent",
                                            (dp_handle, dname, False),
                                            size=144 + len(dname))
                old_attrs = yield from self._getattr(old)
                removals = [(self._owner(h), "remove_obj", h)
                            for h in (old, *old_attrs[6])]
                yield from self._pcall(removals)
                yield from self._call(self._owner(dp_handle), "crdirent",
                                      (dp_handle, dname, handle),
                                      size=144 + len(dname))
            else:
                raise
        return True

    def chmod(self, path: str, mode: int) -> Generator:
        self.stats["ops"] += 1
        handle = yield from self._resolve(normalize_path(path))
        yield from self._call(self._owner(handle), "setattr", (handle, mode))
        return True

    def truncate(self, path: str, size: int) -> Generator:
        self.stats["ops"] += 1
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
        self.stats["ops"] += 1
        linkpath = normalize_path(linkpath)
        parent_handle, name = yield from self._resolve_parent(linkpath)
        h = yield from self._call(self._server_for_new(parent_handle, name),
                                  "symlink_obj", target,
                                  size=144 + len(target))
        yield from self._call(self._owner(parent_handle), "crdirent",
                              (parent_handle, name, h), size=144 + len(name))
        return True

    def readlink(self, path: str) -> Generator:
        self.stats["ops"] += 1
        handle = yield from self._resolve(normalize_path(path))
        target = yield from self._call(self._owner(handle), "readlink", handle)
        return target

    def open(self, path: str, flags: int = 0) -> Generator:
        handle = yield from self._resolve(normalize_path(path))
        return handle

    def read(self, path: str, offset: int, size: int) -> Generator:
        st = yield from self.stat(path)
        return max(0, min(size, st.st_size - offset))

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        self.stats["ops"] += 1
        handle = yield from self._resolve(normalize_path(path))
        _, _, _, _, _, _, dfiles, _ = yield from self._getattr(handle)
        if not dfiles:
            raise FSError(ENOENT, path, "no datafiles")
        per = (offset + len(data)) // len(dfiles)
        yield from self._pcall(
            [(self._owner(h), "truncate_dfile", (h, per)) for h in dfiles])
        return len(data)
