"""The FUSE mount: VFS-call interception with kernel-crossing costs."""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import ENOSYS, FSError
from ..models.params import FUSEParams
from ..sim.node import Node
from ..sim.resources import Resource
from .ops import OperationTable


class FuseMount:
    """A mounted userspace filesystem on one node.

    Every call pays the request-side crossing cost (kernel → userspace),
    runs the registered handler (a generator over the simulation), then
    pays the completion-side cost. The libfuse worker-thread pool bounds
    how many requests are in userspace concurrently (``max_workers``) —
    with slow back-end operations this pool, not CPU, is what caps a
    node's FUSE throughput. Applications on the node call
    ``yield from mount.call("mkdir", path, mode)`` or the named helpers.
    """

    def __init__(self, node: Node, ops: OperationTable,
                 params: Optional[FUSEParams] = None, name: str = "fuse"):
        self.node = node
        self.sim = node.sim
        self.ops = ops
        self.params = params or FUSEParams()
        self.name = name
        self.workers = Resource(self.sim, self.params.max_workers)

    def call(self, op: str, *args) -> Generator:
        handler = self.ops.get(op)
        if handler is None:
            raise FSError(ENOSYS, msg=f"FUSE op {op!r} not implemented")
        p = self.params
        req = self.workers.request()
        try:
            yield req
            yield from self.node.cpu_work(p.crossing_cpu)
            try:
                result = yield from handler(*args)
            except FSError:
                yield from self.node.cpu_work(p.completion_cpu)
                raise
            extra = 0.0
            if op == "readdir" and isinstance(result, (list, tuple)):
                extra = p.readdir_per_entry_cpu * len(result)
            yield from self.node.cpu_work(p.completion_cpu + extra)
        finally:
            self.workers.release(req)
        return result

    # Named helpers so a FuseMount itself satisfies FileSystemClient.
    def stat(self, path): return self.call("getattr", path)
    def mkdir(self, path, mode=0o755): return self.call("mkdir", path, mode)
    def rmdir(self, path): return self.call("rmdir", path)
    def create(self, path, mode=0o644): return self.call("create", path, mode)
    def unlink(self, path): return self.call("unlink", path)
    def open(self, path, flags=0): return self.call("open", path, flags)
    def readdir(self, path): return self.call("readdir", path)
    def rename(self, src, dst): return self.call("rename", src, dst)
    def chmod(self, path, mode): return self.call("chmod", path, mode)
    def truncate(self, path, size): return self.call("truncate", path, size)
    def access(self, path, mode=0): return self.call("access", path, mode)
    def symlink(self, target, linkpath): return self.call("symlink", target, linkpath)
    def readlink(self, path): return self.call("readlink", path)
    def read(self, path, offset, size): return self.call("read", path, offset, size)
    def write(self, path, offset, data): return self.call("write", path, offset, data)
    def statfs(self): return self.call("statfs")
    def release(self, fh): return self.call("release", fh)
