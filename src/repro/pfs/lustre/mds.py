"""The Lustre metadata server.

One MDS owns the whole namespace (paper §II-A). Operations are intent-based
single RPCs (mkdir/create/unlink carry everything the server needs), the
journal is group-committed (pipelined latency, not a throughput cap), and
the DLM revokes other clients' cached directory locks before mutations.

Service-time model per request::

    cpu = (base_op_cost + dirent_coef*ln(1+entries) + lock_table_term)
          * thrash_multiplier(inflight)

``thrash_multiplier`` grows with the request queue (Lustre 1.8's fixed
service-thread pool degrades under deep queues); it is what bends the
curves downward at 256 client processes.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Tuple

from ...errors import ENOENT, FSError
from ...core.paths import parent_dir
from ...models.params import LustreParams
from ...sim.core import AllOf
from ...sim.node import Node
from ...sim.resources import Resource
from ...sim.rpc import Reply
from ...svc import Service, TraceBus
from ..namespace import Namespace
from .dlm import LockManager


class MetadataServer:
    def __init__(self, node: Node, endpoint: str, params: LustreParams,
                 n_oss: int, oss_endpoints: List[str],
                 ns: Optional[Namespace] = None,
                 bus: Optional[TraceBus] = None):
        self.node = node
        self.sim = node.sim
        self.endpoint = endpoint
        self.params = params
        self.n_oss = n_oss
        self.oss_endpoints = oss_endpoints
        # ``ns`` is the MDT backing store; a standby MDS taking over after
        # a failover attaches to the same (shared-disk) namespace.
        self.ns = ns if ns is not None else Namespace()
        self.dlm = LockManager()
        self._next_object = 0
        self._next_revoke_token = 0
        self._pending_cancels: dict = {}   # token -> Event
        # Per-directory mutation mutex (ldiskfs i_mutex: Lustre 1.8 has no
        # parallel dirops — concurrent creates in ONE directory serialize).
        self._dir_mutexes: dict = {}
        # The kernel tracks in-flight depth, which the thrash model keys
        # off: the depth of the whole service queue (CPU + dir mutexes +
        # lock callbacks), like the real server's thread pool.
        self.svc = s = Service(node, endpoint, deployment="lustre", bus=bus)
        self.agent = self.svc.agent
        s.expose("lookup", self._h_lookup)
        s.expose("getattr", self._h_getattr)
        s.expose("readdir", self._h_readdir)
        s.expose("readlink", self._h_readlink)
        s.expose("statfs", self._h_statfs)
        s.expose("mkdir", self._h_mkdir)
        s.expose("rmdir", self._h_rmdir)
        s.expose("create", self._h_create)
        s.expose("unlink", self._h_unlink)
        s.expose("rename", self._h_rename)
        s.expose("setattr", self._h_setattr)
        s.expose("symlink", self._h_symlink)
        s.expose_fast("lock_cancel", self._f_lock_cancel)

    # -- cost model -------------------------------------------------------
    def _inflight(self) -> int:
        return self.svc.inflight

    def _charge(self, base: float, dir_entries: int = 0,
                read: bool = False) -> Generator:
        p = self.params
        cost = base
        if dir_entries:
            cost += p.dirent_cpu_coef * math.log1p(dir_entries)
        if p.dlm_enabled:
            cost += p.lock_table_cpu_coef * math.log1p(
                self.dlm.resident_locks / 1024)
        # Mutations take the journal + DLM write path and suffer far more
        # from deep request queues than lockless cached getattrs do.
        coef = p.thrash_read_coef if read else p.thrash_coef
        thrash = 1.0 + coef * self._inflight() / p.thrash_norm
        yield from self.node.cpu_work(cost * thrash)

    def _parent_entries(self, path: str) -> int:
        try:
            parent, _ = self.ns.lookup_parent(path)
            return len(parent.entries or ())
        except FSError:
            return 0

    # -- DLM integration -----------------------------------------------------
    def _revoke_conflicts(self, resource: str, requester: str) -> Generator:
        """Blocking-callback round: revoke other clients' cached locks."""
        if not self.params.dlm_enabled:
            return
        victims = self.dlm.revoke_all(resource, keep=requester)
        if not victims:
            return
        yield from self.node.cpu_work(self.params.revoke_cpu * len(victims))
        waits = []
        for client in victims:
            self._next_revoke_token += 1
            token = self._next_revoke_token
            ev = self.sim.event()
            self._pending_cancels[token] = ev
            self.agent.cast(client, "lock_revoke", (resource, token), size=96)
            waits.append(ev)
        yield AllOf(self.sim, waits)

    def _f_lock_cancel(self, src: str, token: int) -> None:
        ev = self._pending_cancels.pop(token, None)
        if ev is not None and not ev.triggered:
            ev.succeed()

    def _dir_mutex(self, path: str) -> Resource:
        res = self._dir_mutexes.get(path)
        if res is None:
            res = Resource(self.sim, 1)
            self._dir_mutexes[path] = res
        return res

    def _grant(self, resource: str, client: str) -> None:
        if self.params.dlm_enabled:
            self.dlm.grant(resource, client)

    @staticmethod
    def _dir_of(path: str) -> str:
        return parent_dir(path)

    # -- read ops -----------------------------------------------------------
    def _h_lookup(self, src: str, args: Tuple[str]) -> Generator:
        (path,) = args
        yield from self._charge(self.params.lookup_cpu, read=True)
        inode = self.ns.lookup(path)
        self._grant(self._dir_of(path), src)
        if self.params.dlm_enabled:
            yield from self.node.cpu_work(self.params.lock_grant_cpu)
        return (inode.ino, inode.is_dir)

    def _h_getattr(self, src: str, args: Tuple[str]) -> Generator:
        (path,) = args
        inode_peek = None
        try:
            inode_peek = self.ns.lookup(path)
        except FSError:
            pass
        base = (self.params.getattr_cpu
                if inode_peek is not None and inode_peek.is_dir
                else self.params.getattr_file_cpu)
        yield from self._charge(base, read=True)
        inode = self.ns.lookup(path)  # raises ENOENT properly
        self._grant(self._dir_of(path), src)
        st = inode.to_stat()
        return Reply((st, inode.layout), size=144)

    def _h_readdir(self, src: str, args: Tuple[str]) -> Generator:
        (path,) = args
        entries = self.ns.readdir(path)
        yield from self._charge(
            self.params.readdir_cpu_base
            + self.params.readdir_cpu_per_entry * len(entries), read=True)
        self._grant(path, src)
        return Reply(entries, size=96 + 24 * len(entries))

    def _h_statfs(self, src: str, args) -> Generator:
        from ..base import StatVFS

        yield from self._charge(self.params.getattr_cpu, read=True)
        used = sum(i.size for i in self.ns.inodes.values())
        return Reply(StatVFS(f_files=self.ns.count_files(),
                             f_dirs=self.ns.count_dirs(),
                             f_bytes_used=used,
                             f_capacity=self.n_oss * 250 * 10**9), size=96)

    def _h_readlink(self, src: str, args: Tuple[str]) -> Generator:
        (path,) = args
        yield from self._charge(self.params.lookup_cpu, read=True)
        return self.ns.readlink(path)

    # -- mutations ------------------------------------------------------------
    def _h_mkdir(self, src: str, args: Tuple[str, int]) -> Generator:
        path, mode = args
        parent = self._dir_of(path)
        with self._dir_mutex(parent).request() as mutex:
            yield mutex
            yield from self._charge(self.params.mkdir_cpu,
                                    self._parent_entries(path))
            yield from self._revoke_conflicts(parent, src)
            self.ns.mkdir(path, mode, self.sim.now)
            self._grant(parent, src)
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_rmdir(self, src: str, args: Tuple[str]) -> Generator:
        (path,) = args
        parent = self._dir_of(path)
        with self._dir_mutex(parent).request() as mutex:
            yield mutex
            yield from self._charge(self.params.rmdir_cpu,
                                    self._parent_entries(path))
            yield from self._revoke_conflicts(parent, src)
            yield from self._revoke_conflicts(path, src)
            self.ns.rmdir(path, self.sim.now)
            self._dir_mutexes.pop(path, None)
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_create(self, src: str, args: Tuple[str, int]) -> Generator:
        path, mode = args
        parent = self._dir_of(path)
        with self._dir_mutex(parent).request() as mutex:
            yield mutex
            yield from self._charge(self.params.create_cpu,
                                    self._parent_entries(path))
            yield from self._revoke_conflicts(parent, src)
            inode = self.ns.create(path, mode, self.sim.now)
            # Attach a precreated object on one OSS (EA layout);
            # precreation is batched/async, not serializing the create.
            oss_index = self._next_object % max(1, self.n_oss)
            self._next_object += 1
            inode.layout = ((oss_index, self._next_object),)
            self.agent.cast(self.oss_endpoints[oss_index], "precreate",
                            self._next_object, size=64)
            self._grant(parent, src)
        yield self.sim.timeout(self.params.journal_delay)
        return inode.ino

    def _h_unlink(self, src: str, args: Tuple[str]) -> Generator:
        (path,) = args
        parent = self._dir_of(path)
        with self._dir_mutex(parent).request() as mutex:
            yield mutex
            yield from self._charge(self.params.unlink_cpu,
                                    self._parent_entries(path))
            yield from self._revoke_conflicts(parent, src)
            inode = self.ns.unlink(path, self.sim.now)
            for oss_index, object_id in inode.layout:
                self.agent.cast(self.oss_endpoints[oss_index], "destroy",
                                object_id, size=64)
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_rename(self, src: str, args: Tuple[str, str]) -> Generator:
        spath, dpath = args
        sparent, dparent = self._dir_of(spath), self._dir_of(dpath)
        # Lock both parents in canonical order (deadlock avoidance).
        locks = [self._dir_mutex(d) for d in sorted({sparent, dparent})]
        reqs = []
        try:
            for lock in locks:
                req = lock.request()
                reqs.append((lock, req))
                yield req
            yield from self._charge(self.params.rename_cpu,
                                    self._parent_entries(spath))
            yield from self._revoke_conflicts(sparent, src)
            if dparent != sparent:
                yield from self._revoke_conflicts(dparent, src)
            self.ns.rename(spath, dpath, self.sim.now)
        finally:
            for lock, req in reversed(reqs):
                lock.release(req)
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_setattr(self, src: str, args: Tuple[str, str, int]) -> Generator:
        path, what, value = args
        yield from self._charge(self.params.setattr_cpu)
        if what == "mode":
            self.ns.chmod(path, value, self.sim.now)
        elif what == "size":
            self.ns.truncate(path, value, self.sim.now)
        else:
            raise FSError(ENOENT, path, f"bad setattr {what!r}")
        yield self.sim.timeout(self.params.journal_delay)
        return True

    def _h_symlink(self, src: str, args: Tuple[str, str]) -> Generator:
        target, linkpath = args
        parent = self._dir_of(linkpath)
        with self._dir_mutex(parent).request() as mutex:
            yield mutex
            yield from self._charge(self.params.create_cpu,
                                    self._parent_entries(linkpath))
            yield from self._revoke_conflicts(parent, src)
            self.ns.symlink(target, linkpath, self.sim.now)
        yield self.sim.timeout(self.params.journal_delay)
        return True
