"""CMD client: single-server fast paths, global lock for cross-MDS ops.

mkdir and rmdir touch two metadata servers whenever the new directory
hashes to a different MDS than its parent — those updates are made atomic
by holding the global lock across both RPCs, per the CMD design the paper
critiques. File creates/unlinks touch only the parent's MDS (fast path).
Renames always take the global lock.
"""

from __future__ import annotations

import itertools
from typing import Generator, Tuple

from ...errors import EIO, FSError
from ...sim.node import Node
from ...sim.rpc import RpcAgent
from ..base import normalize_path, path_components
from .server import owner_index

_client_seq = itertools.count()


class CMDClient:
    def __init__(self, fs: "CMDFS", node: Node):  # noqa: F821
        self.fs = fs
        self.node = node
        self.sim = node.sim
        self.agent = RpcAgent(
            node, f"{fs.name}-cli-{node.name}-{next(_client_seq)}")

    # -- plumbing ------------------------------------------------------------
    def _owner_ep(self, dirpath: str) -> str:
        return self.fs.server_endpoints[
            owner_index(dirpath, len(self.fs.server_endpoints))]

    def _call(self, endpoint: str, method: str, args, size: int = 144) -> Generator:
        return (yield from self.agent.call(endpoint, method, args, size=size))

    def _split(self, path: str) -> Tuple[str, str]:
        path = normalize_path(path)
        comps = path_components(path)
        if not comps:
            raise FSError(EIO, path, "cannot operate on /")
        return ("/" + "/".join(comps[:-1])) or "/", comps[-1]

    def _global_lock(self) -> Generator:
        return (yield from self._call(self.fs.lock_endpoint, "acquire", None))

    def _global_unlock(self, token: int) -> None:
        self.agent.cast(self.fs.lock_endpoint, "release", token, size=48)

    # -- operations ------------------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        path = normalize_path(path)
        parent, name = self._split(path)
        n = len(self.fs.server_endpoints)
        same_server = owner_index(parent, n) == owner_index(path, n)
        token = None
        if not same_server:
            # Atomic two-server update: hold the global lock throughout.
            token = yield from self._global_lock()
        try:
            yield from self._call(self._owner_ep(parent), "insert",
                                  (parent, name, True, mode))
            try:
                yield from self._call(self._owner_ep(path), "adopt_dir",
                                      (path,))
            except FSError:
                yield from self._call(self._owner_ep(parent), "remove",
                                      (parent, name, True))
                raise
        finally:
            if token is not None:
                self._global_unlock(token)
        return True

    def rmdir(self, path: str) -> Generator:
        path = normalize_path(path)
        parent, name = self._split(path)
        n = len(self.fs.server_endpoints)
        same_server = owner_index(parent, n) == owner_index(path, n)
        token = None
        if not same_server:
            token = yield from self._global_lock()
        try:
            yield from self._call(self._owner_ep(path), "drop_dir", (path,))
            yield from self._call(self._owner_ep(parent), "remove",
                                  (parent, name, True))
        finally:
            if token is not None:
                self._global_unlock(token)
        return True

    def create(self, path: str, mode: int = 0o644) -> Generator:
        parent, name = self._split(path)
        yield from self._call(self._owner_ep(parent), "insert",
                              (parent, name, False, mode))
        return True

    def unlink(self, path: str) -> Generator:
        parent, name = self._split(path)
        yield from self._call(self._owner_ep(parent), "remove",
                              (parent, name, False))
        return True

    def stat(self, path: str) -> Generator:
        path = normalize_path(path)
        if path == "/":
            st = yield from self._call(self._owner_ep("/"), "getattr_entry",
                                       ("/", ""))
            return st
        parent, name = self._split(path)
        st = yield from self._call(self._owner_ep(parent), "getattr_entry",
                                   (parent, name))
        return st

    def readdir(self, path: str) -> Generator:
        path = normalize_path(path)
        return (yield from self._call(self._owner_ep(path), "readdir", path))

    def rename(self, src: str, dst: str) -> Generator:
        """Always a global-lock operation in CMD (dirents may live on two
        different servers and the update must appear atomic)."""
        sparent, sname = self._split(src)
        dparent, dname = self._split(dst)
        token = yield from self._global_lock()
        try:
            is_dir = yield from self._call(self._owner_ep(sparent), "lookup",
                                           (sparent, sname))
            if is_dir:
                raise FSError(EIO, src, "CMD prototype: dir rename "
                              "unsupported (needs subtree migration)")
            yield from self._call(self._owner_ep(dparent), "insert",
                                  (dparent, dname, False, 0o644))
            yield from self._call(self._owner_ep(sparent), "remove",
                                  (sparent, sname, False))
        finally:
            self._global_unlock(token)
        return True

    def chmod(self, path: str, mode: int) -> Generator:
        parent, name = self._split(path)
        yield from self._call(self._owner_ep(parent), "set_mode",
                              (parent, name, mode))
        return True

    def truncate(self, path: str, size: int) -> Generator:
        parent, name = self._split(path)
        yield from self._call(self._owner_ep(parent), "set_size",
                              (parent, name, size))
        return True

    def access(self, path: str, mode: int = 0) -> Generator:
        yield from self.stat(path)
        return True
