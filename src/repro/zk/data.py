"""The znode tree: ZooKeeper's hierarchical in-memory namespace.

This is the replicated state machine underneath ZAB. Transactions
(:func:`ZnodeStore.apply`) are *validated records* produced by the leader;
applying the same sequence to any replica yields a byte-identical tree —
the property the consistency tests and the Fig. 1 reproduction rely on.

Memory accounting (:attr:`ZnodeStore.approx_memory_bytes`) models the
paper's Fig. 11 observation that one million znodes cost ~417 MB in the
JVM: per znode we charge a fixed overhead plus path and data bytes
(see :mod:`repro.models.memory` for the calibrated constants).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, Tuple

from .errors import (
    BadArgumentsError,
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
)

# Calibrated so that ~1e6 typical DUFS znodes ≈ 417 MB (paper Fig. 11):
# JVM DataNode + HashMap entries + watches bookkeeping.
ZNODE_BASE_OVERHEAD = 321
ZNODE_PER_CHILD = 8


@dataclass(slots=True)
class ZnodeStat:
    """Subset of the real ``Stat`` structure (org.apache.zookeeper.data).

    A read builds a fresh one from the znode's own slots (``_Znode.stat``),
    so a caller that mutates it changes nothing in the tree."""

    czxid: int = 0          # zxid that created the node
    mzxid: int = 0          # zxid of last data modification
    pzxid: int = 0          # zxid of last child-list change
    ctime: float = 0.0      # creation time (sim seconds)
    mtime: float = 0.0      # last-modification time
    version: int = 0        # data version
    cversion: int = 0       # child-list version
    data_length: int = 0
    num_children: int = 0


#: The children of every leaf: one read-only mapping, shared. A znode's
#: first child swaps in a dict of its own, and deleting its last child
#: swaps this back (MODEL.md §12, cut 7).
_LEAF: Mapping[str, "_Znode"] = MappingProxyType({})


class _Znode:
    """One znode of one replica. Its ``state`` is ``ZnodeStat``'s first
    seven fields, in slot order (a snapshot row's); ``data_length`` and
    ``num_children`` are ``len()`` of ``data`` and ``children``, so
    nothing keeps them up to date by hand."""

    __slots__ = ("data", "children", "czxid", "mzxid", "pzxid", "ctime",
                 "mtime", "version", "cversion")

    def __init__(self, data: bytes, *state):
        self.data = data
        self.children = _LEAF
        (self.czxid, self.mzxid, self.pzxid, self.ctime, self.mtime,
         self.version, self.cversion) = state

    @property
    def stat(self) -> ZnodeStat:
        """A fresh copy of this znode's stat, built positionally."""
        return ZnodeStat(self.czxid, self.mzxid, self.pzxid, self.ctime,
                         self.mtime, self.version, self.cversion,
                         len(self.data), len(self.children))

    def link(self, name: str, child: "_Znode") -> None:
        if self.children is _LEAF:
            self.children = {}
        self.children[name] = child


#: A znode's slots after ``data`` and ``children``, in snapshot order.
_state = attrgetter(*_Znode.__slots__[2:])


def validate_path(path: str) -> None:
    if not path.startswith("/"):
        raise BadArgumentsError(path, f"path must be absolute: {path!r}")
    if path != "/" and path.endswith("/"):
        raise BadArgumentsError(path, f"trailing slash: {path!r}")
    if "//" in path:
        raise BadArgumentsError(path, f"empty component: {path!r}")
    for comp in path.split("/")[1:]:
        if comp in (".", ".."):
            raise BadArgumentsError(path, f"relative component in {path!r}")


def split_path(path: str) -> Tuple[str, str]:
    """``/a/b/c`` -> (``/a/b``, ``c``)."""
    parent, _, name = path.rpartition("/")
    return (parent or "/", name)


class ZnodeStore:
    """One replica's znode tree plus deterministic txn application."""

    def __init__(self):
        self._root = _Znode(b"", 0, 0, 0, 0.0, 0.0, 0, 0)
        self._count = 1
        self._bytes = ZNODE_BASE_OVERHEAD

    # -- lookup ------------------------------------------------------------
    def _walk(self, path: str) -> Optional[_Znode]:
        if path == "/":
            return self._root
        node = self._root
        for comp in path.split("/")[1:]:
            node = node.children.get(comp)
            if node is None:
                return None
        return node

    def exists(self, path: str) -> Optional[ZnodeStat]:
        node = self._walk(path)
        return node.stat if node is not None else None

    def get(self, path: str) -> Tuple[bytes, ZnodeStat]:
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        return node.data, node.stat

    def get_children(self, path: str) -> List[str]:
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        return sorted(node.children)

    def __len__(self) -> int:
        return self._count

    @property
    def approx_memory_bytes(self) -> int:
        return self._bytes

    def walk_paths(self) -> Iterator[str]:
        """Depth-first enumeration of all paths (diagnostics/snapshots)."""

        def rec(prefix: str, node: _Znode) -> Iterator[str]:
            for name in sorted(node.children):
                child = node.children[name]
                p = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                yield p
                yield from rec(p, child)

        yield "/"
        yield from rec("/", self._root)

    # -- validation (leader side) -------------------------------------------
    def check_create(self, path: str) -> None:
        """Validate a create.

        Called by the leader against its *speculative* store before a txn
        is proposed. Raises the client-visible ZK error on failure.
        """
        validate_path(path)
        parent_path, name = split_path(path)
        if not name:
            raise NodeExistsError(path)  # creating "/"
        parent = self._walk(parent_path)
        if parent is None:
            raise NoNodeError(path)
        if name in parent.children:
            raise NodeExistsError(path)

    def check_delete(self, path: str, version: int = -1) -> None:
        validate_path(path)
        if path == "/":
            raise BadArgumentsError(path, "cannot delete root")
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        if node.children:
            raise NotEmptyError(path)
        if version != -1 and node.version != version:
            raise BadVersionError(path)

    def check_set_data(self, path: str, version: int = -1) -> None:
        validate_path(path)
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        if version != -1 and node.version != version:
            raise BadVersionError(path)

    # -- mutation (txn application; must never fail on a valid log) ---------
    def apply_create(self, path: str, data: bytes, zxid: int,
                     time: float) -> None:
        parent_path, name = split_path(path)
        parent = self._walk(parent_path)
        if parent is None or name in parent.children:
            raise AssertionError(f"inconsistent replica: create {path}")
        parent.link(name, _Znode(data, zxid, zxid, zxid, time, time, 0, 0))
        parent.cversion += 1
        parent.pzxid = zxid
        self._count += 1
        self._bytes += ZNODE_BASE_OVERHEAD + len(path) + len(data) + ZNODE_PER_CHILD

    def apply_delete(self, path: str, zxid: int) -> None:
        parent_path, name = split_path(path)
        parent = self._walk(parent_path)
        node = parent.children.get(name) if parent else None
        if node is None:
            raise AssertionError(f"inconsistent replica: delete {path}")
        del parent.children[name]
        if not parent.children:
            parent.children = _LEAF
        parent.cversion += 1
        parent.pzxid = zxid
        self._count -= 1
        self._bytes -= ZNODE_BASE_OVERHEAD + len(path) + len(node.data) + ZNODE_PER_CHILD

    def apply_set_data(self, path: str, data: bytes, zxid: int, time: float) -> None:
        node = self._walk(path)
        if node is None:
            raise AssertionError(f"inconsistent replica: set {path}")
        self._bytes += len(data) - len(node.data)
        node.data = data
        node.mzxid = zxid
        node.mtime = time
        node.version += 1

    # -- txn records ---------------------------------------------------------
    def apply(self, txn: tuple, zxid: int, time: float) -> None:
        """Apply one validated txn record.

        Records: ``('create', path, data)``,
        ``('delete', path)``, ``('set', path, data)``,
        ``('multi', (record, ...))``.
        """
        kind = txn[0]
        if kind == "create":
            self.apply_create(txn[1], txn[2], zxid, time)
        elif kind == "delete":
            self.apply_delete(txn[1], zxid)
        elif kind == "set":
            self.apply_set_data(txn[1], txn[2], zxid, time)
        elif kind == "multi":
            for sub in txn[1]:
                self.apply(sub, zxid, time)
        else:  # pragma: no cover - log corruption guard
            raise AssertionError(f"unknown txn {txn!r}")

    # -- snapshots ------------------------------------------------------------
    def snapshot(self) -> list:
        """Serializable dump (the leader's speculative-tree rebuild and
        :meth:`fingerprint` use it):
        ``(path, data, czxid, mzxid, pzxid, ctime, mtime, version,
        cversion)`` per znode, parents first."""
        out = [("/", self._root.data, *_state(self._root))]

        def rec(prefix: str, node: _Znode) -> None:
            for name in sorted(node.children):
                child = node.children[name]
                p = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                out.append((p, child.data, *_state(child)))
                rec(p, child)

        rec("/", self._root)
        return out

    @classmethod
    def from_snapshot(cls, snap: list) -> "ZnodeStore":
        store = cls()
        for p, data, *state in snap:
            node = _Znode(data, *state)
            if p == "/":
                store._root = node
                continue
            parent_path, name = split_path(p)
            parent = store._walk(parent_path)
            assert parent is not None, f"snapshot out of order at {p}"
            parent.link(name, node)
            store._count += 1
            store._bytes += ZNODE_BASE_OVERHEAD + len(p) + len(data) + ZNODE_PER_CHILD
        return store

    def fingerprint(self) -> int:
        """Order-independent digest of the full tree (replica comparison)."""
        acc = 0
        for p, data, _, _, _, _, _, version, cversion in self.snapshot():
            acc ^= hash((p, data, version, cversion)) * 2654435761 % (1 << 61)
        return acc
