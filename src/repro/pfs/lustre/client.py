"""Lustre client (the per-node kernel module, shared by all processes).

Holds the dentry cache guarded by DLM locks: path resolution of components
whose parent-directory lock is cached costs nothing; uncached components
pay a lookup RPC each. Lock revocations from the MDS (other clients
mutating a directory) invalidate the cached entries under that directory —
producing the re-resolution traffic that loads the MDS under concurrent
updates.

Concurrent mkdirs of one path on one node are one MDS request, as under the
kernel's parent inode lock: the later callers get EEXIST, or the first
call's other error.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Set

from ...core.paths import parent_dir
from ...errors import EEXIST, EIO, ENOENT, FSError
from ...models.params import LustreParams
from ...resilience import build_retry, retry_call
from ...sim.core import Event
from ...sim.node import Node
from ...sim.rpc import RpcAgent, RpcTimeout
from ..base import normalize_path, path_components

_client_seq = itertools.count()


class LustreClient:
    def __init__(self, fs: "LustreFS", node: Node):  # noqa: F821
        self.fs = fs
        self.node = node
        self.sim = node.sim
        self.params: LustreParams = fs.params
        self.mds = fs.mds_endpoint
        self.agent = RpcAgent(
            node, f"{fs.name}-cli-{node.name}-{next(_client_seq)}")
        self.agent.register_fast("lock_revoke", self._f_lock_revoke)
        # dentry cache: dir path -> ino, valid while we hold the lock on
        # its parent; locked_dirs = resources we hold a read lock on.
        self.dentries: Dict[str, int] = {"/": 1}
        self.locked_dirs: Set[str] = set()
        self.stats = {"lookups": 0}
        self._mkdirs: Dict[str, Event] = {}   # path -> in-flight mkdir
        # The fault policy (at the back-end default: no timeout, so never
        # a retry; no backoff events, unlimited retry budget, breakers off).
        self.retry, self.breakers = build_retry(
            node, f"lustre.client.{self.agent.endpoint}", self.params.fault)

    # -- DLM client side ------------------------------------------------------
    def _f_lock_revoke(self, src: str, args) -> None:
        resource, token = args
        self.locked_dirs.discard(resource)
        for path in list(self.dentries):
            if path != "/" and parent_dir(path) == resource:
                del self.dentries[path]
        # Cancel immediately (we model no in-flight pinning).
        self.agent.cast(src, "lock_cancel", token, size=64)

    def _note_lock(self, resource: str) -> None:
        self.locked_dirs.add(resource)

    # -- path resolution ---------------------------------------------------------
    def _resolve_dir(self, dirpath: str) -> Generator:
        """Ensure every component of ``dirpath`` is in the dentry cache,
        paying lookup RPCs for uncached components."""
        dirpath = normalize_path(dirpath)
        if dirpath in self.dentries and self._covered(dirpath):
            return
        comps = path_components(dirpath)
        cur = ""
        for comp in comps:
            parent = cur or "/"
            cur = f"{cur}/{comp}"
            if cur in self.dentries and parent in self.locked_dirs:
                continue
            self.stats["lookups"] += 1
            ino, is_dir = yield from self._call("lookup", (cur,),
                                                size=128 + len(cur))
            self.dentries[cur] = ino
            self._note_lock(parent)

    def _covered(self, dirpath: str) -> bool:
        return dirpath == "/" or parent_dir(dirpath) in self.locked_dirs

    def _parent_of(self, path: str) -> str:
        return parent_dir(normalize_path(path))

    def on_mds_failover(self, new_endpoint: str) -> None:
        """The filesystem failed over: all cached dentries and locks are
        stale (the new MDS has an empty lock table); reconnect."""
        self.mds = new_endpoint
        self.dentries = {"/": 1}
        self.locked_dirs = set()

    # -- operations (each: resolve parents from cache, then 1 intent RPC) ------
    def _call(self, method: str, args, size: int = 160) -> Generator:
        state = self.retry.begin(self.sim.now)
        return retry_call(
            self.sim, self.retry, self.breakers, state,
            pick=self._track_mds,
            attempt=lambda mds: self.agent.call(mds, method, args, size=size,
                                                **state.bounds),
            retry_on=(RpcTimeout,),
            gave_up=lambda mds, exc: FSError(
                EIO, msg=f"MDS unreachable: {method}"))

    def _track_mds(self) -> str:
        self.mds = self.fs.mds_endpoint  # track failovers
        return self.mds

    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        path = normalize_path(path)
        waiter = self._mkdirs.get(path)
        if waiter is not None:
            yield waiter                # re-raises any error but EEXIST
            raise FSError(EEXIST, path)
        ev = self._mkdirs[path] = self.sim.event()
        try:
            yield from self._resolve_dir(self._parent_of(path))
            yield from self._call("mkdir", (path, mode), size=144 + len(path))
        except BaseException as exc:
            if isinstance(exc, FSError) and exc.err == EEXIST:
                ev.succeed()            # the name exists, as on success
            else:
                ev.fail(exc)
                ev._used = True         # pre-handled: waiters are optional
            raise
        finally:
            del self._mkdirs[path]
        ev.succeed()
        self.dentries[path] = -1  # known to exist; ino refreshed on lookup
        self._note_lock(self._parent_of(path))
        return True

    def rmdir(self, path: str) -> Generator:
        path = normalize_path(path)
        yield from self._resolve_dir(self._parent_of(path))
        yield from self._call("rmdir", (path,), size=128 + len(path))
        self.dentries.pop(path, None)
        self.locked_dirs.discard(path)
        return True

    def create(self, path: str, mode: int = 0o644) -> Generator:
        path = normalize_path(path)
        yield from self._resolve_dir(self._parent_of(path))
        ino = yield from self._call("create", (path, mode),
                                    size=144 + len(path))
        self._note_lock(self._parent_of(path))
        return ino

    def unlink(self, path: str) -> Generator:
        path = normalize_path(path)
        yield from self._resolve_dir(self._parent_of(path))
        yield from self._call("unlink", (path,), size=128 + len(path))
        return True

    def stat(self, path: str) -> Generator:
        path = normalize_path(path)
        if path != "/":
            yield from self._resolve_dir(self._parent_of(path))
        st, layout = yield from self._call("getattr", (path,),
                                           size=128 + len(path))
        if st.is_file and layout:
            # Glimpse the object size from the OSS (mdtest's file stat cost).
            oss_index, object_id = layout[0]
            size = yield from self.agent.call(
                self.fs.oss_endpoints[oss_index], "glimpse", object_id,
                size=96)
            st.st_size = max(st.st_size, size)
        return st

    def readdir(self, path: str) -> Generator:
        path = normalize_path(path)
        if path != "/":
            yield from self._resolve_dir(self._parent_of(path))
        entries = yield from self._call("readdir", (path,),
                                        size=128 + len(path))
        self._note_lock(path)
        return entries

    def rename(self, src: str, dst: str) -> Generator:
        src, dst = normalize_path(src), normalize_path(dst)
        yield from self._resolve_dir(self._parent_of(src))
        yield from self._resolve_dir(self._parent_of(dst))
        yield from self._call("rename", (src, dst),
                              size=144 + len(src) + len(dst))
        self.dentries.pop(src, None)
        return True

    def chmod(self, path: str, mode: int) -> Generator:
        path = normalize_path(path)
        yield from self._resolve_dir(self._parent_of(path))
        yield from self._call("setattr", (path, "mode", mode),
                              size=128 + len(path))
        return True

    def truncate(self, path: str, size: int) -> Generator:
        path = normalize_path(path)
        yield from self._resolve_dir(self._parent_of(path))
        yield from self._call("setattr", (path, "size", size),
                              size=128 + len(path))
        return True

    def access(self, path: str, mode: int = 0) -> Generator:
        yield from self.stat(path)
        return True

    def symlink(self, target: str, linkpath: str) -> Generator:
        linkpath = normalize_path(linkpath)
        yield from self._resolve_dir(self._parent_of(linkpath))
        yield from self._call("symlink", (target, linkpath),
                              size=144 + len(target) + len(linkpath))
        return True

    def readlink(self, path: str) -> Generator:
        path = normalize_path(path)
        yield from self._resolve_dir(self._parent_of(path))
        target = yield from self._call("readlink", (path,),
                                       size=128 + len(path))
        return target

    def statfs(self) -> Generator:
        return (yield from self._call("statfs", None, size=96))

    def open(self, path: str, flags: int = 0) -> Generator:
        st = yield from self.stat(path)
        return st.st_ino

    def read(self, path: str, offset: int, size: int) -> Generator:
        st, layout = yield from self._call("getattr", (normalize_path(path),),
                                           size=128 + len(path))
        if not layout:
            return 0
        oss_index, object_id = layout[0]
        n = yield from self.agent.call(self.fs.oss_endpoints[oss_index],
                                       "read", (object_id, offset, size),
                                       size=96, resp_size=96 + size)
        return n

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        st, layout = yield from self._call("getattr", (normalize_path(path),),
                                           size=128 + len(path))
        if not layout:
            raise FSError(ENOENT, path, "no object layout")
        oss_index, object_id = layout[0]
        n = yield from self.agent.call(self.fs.oss_endpoints[oss_index],
                                       "write", (object_id, offset, len(data)),
                                       size=96 + len(data))
        return n
