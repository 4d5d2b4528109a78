"""A znode that keeps its stat in its own slots reads like the old store.

``ZnodeStore`` used to give every znode a ``_Znode`` with a separate
``ZnodeStat`` dataclass and a children dict of its own, keep
``data_length`` and ``num_children`` up to date by hand, and copy the stat
out with ``dataclasses.replace``. A znode now keeps the stat fields in its
own slots, derives the two counts with ``len()``, and every leaf shares one
read-only empty mapping (docs/MODEL.md §12, cut 7). The old store is kept
here as :class:`RefZnodeStore`, verbatim but for the sequential-znode
counter and the ephemeral owner both have since lost. Streams of
``create``, ``delete``, ``set`` and ``multi`` are applied to one store of
each kind: after every step, and again after a
``from_snapshot(snapshot())`` round trip, every read must agree.

Wrong variants that fail here: dropping the parent's ``cversion += 1`` on
delete, swapping ``ctime`` and ``mtime`` in the stat a read builds,
writing a first child into the shared empty mapping, and not swapping the
shared mapping back when the last child goes.
"""

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.zk.data import (
    _LEAF,
    ZNODE_BASE_OVERHEAD,
    ZNODE_PER_CHILD,
    ZnodeStat,
    ZnodeStore,
    split_path,
    validate_path,
)
from repro.zk.errors import (
    BadArgumentsError,
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    ZKError,
)

STAT_FIELDS = ("czxid", "mzxid", "pzxid", "ctime", "mtime", "version",
               "cversion", "data_length", "num_children")


# -- the store this repo ran before cut 7, verbatim but for its names, the --
# -- sequential-znode counter and the ephemeral owner --------------------------
@dataclass
class RefZnodeStat:
    """Subset of the real ``Stat`` structure (org.apache.zookeeper.data)."""

    czxid: int = 0          # zxid that created the node
    mzxid: int = 0          # zxid of last data modification
    pzxid: int = 0          # zxid of last child-list change
    ctime: float = 0.0      # creation time (sim seconds)
    mtime: float = 0.0      # last-modification time
    version: int = 0        # data version
    cversion: int = 0       # child-list version
    data_length: int = 0
    num_children: int = 0

    def copy(self) -> "RefZnodeStat":
        return replace(self)


class _RefZnode:
    __slots__ = ("name", "data", "children", "stat")

    def __init__(self, name: str, data: bytes, stat: RefZnodeStat):
        self.name = name
        self.data = data
        self.children: Dict[str, "_RefZnode"] = {}
        self.stat = stat


class RefZnodeStore:
    """One replica's znode tree plus deterministic txn application."""

    def __init__(self):
        self._root = _RefZnode("", b"", RefZnodeStat())
        self._count = 1
        self._bytes = ZNODE_BASE_OVERHEAD

    # -- lookup ------------------------------------------------------------
    def _walk(self, path: str) -> Optional[_RefZnode]:
        if path == "/":
            return self._root
        node = self._root
        for comp in path.split("/")[1:]:
            node = node.children.get(comp)
            if node is None:
                return None
        return node

    def exists(self, path: str) -> Optional[RefZnodeStat]:
        node = self._walk(path)
        return node.stat.copy() if node is not None else None

    def get(self, path: str) -> Tuple[bytes, RefZnodeStat]:
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        return node.data, node.stat.copy()

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

        def rec(prefix: str, node: _RefZnode) -> Iterator[str]:
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
        if version != -1 and node.stat.version != version:
            raise BadVersionError(path)

    def check_set_data(self, path: str, version: int = -1) -> None:
        validate_path(path)
        node = self._walk(path)
        if node is None:
            raise NoNodeError(path)
        if version != -1 and node.stat.version != version:
            raise BadVersionError(path)

    # -- mutation (txn application; must never fail on a valid log) ---------
    def apply_create(self, path: str, data: bytes, zxid: int,
                     time: float) -> None:
        parent_path, name = split_path(path)
        parent = self._walk(parent_path)
        if parent is None or name in parent.children:
            raise AssertionError(f"inconsistent replica: create {path}")
        stat = RefZnodeStat(czxid=zxid, mzxid=zxid, pzxid=zxid, ctime=time,
                            mtime=time, data_length=len(data))
        node = _RefZnode(name, data, stat)
        parent.children[name] = node
        parent.stat.cversion += 1
        parent.stat.pzxid = zxid
        parent.stat.num_children = len(parent.children)
        self._count += 1
        self._bytes += ZNODE_BASE_OVERHEAD + len(path) + len(data) + ZNODE_PER_CHILD

    def apply_delete(self, path: str, zxid: int) -> None:
        parent_path, name = split_path(path)
        parent = self._walk(parent_path)
        node = parent.children.pop(name, None) if parent else None
        if node is None:
            raise AssertionError(f"inconsistent replica: delete {path}")
        parent.stat.cversion += 1
        parent.stat.pzxid = zxid
        parent.stat.num_children = len(parent.children)
        self._count -= 1
        self._bytes -= ZNODE_BASE_OVERHEAD + len(path) + len(node.data) + ZNODE_PER_CHILD

    def apply_set_data(self, path: str, data: bytes, zxid: int, time: float) -> None:
        node = self._walk(path)
        if node is None:
            raise AssertionError(f"inconsistent replica: set {path}")
        self._bytes += len(data) - len(node.data)
        node.data = data
        node.stat.mzxid = zxid
        node.stat.mtime = time
        node.stat.version += 1
        node.stat.data_length = len(data)

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
        """Serializable dump (used for checkpoint/restore and leader sync)."""
        rs = self._root.stat
        out = [("/", self._root.data, rs.czxid, rs.mzxid, rs.pzxid,
                rs.ctime, rs.mtime, rs.version, rs.cversion)]

        def rec(prefix: str, node: _RefZnode) -> None:
            for name in sorted(node.children):
                child = node.children[name]
                p = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                st = child.stat
                out.append((p, child.data, st.czxid, st.mzxid, st.pzxid,
                            st.ctime, st.mtime, st.version, st.cversion))
                rec(p, child)

        rec("/", self._root)
        return out

    @classmethod
    def from_snapshot(cls, snap: list) -> "RefZnodeStore":
        store = cls()
        for (p, data, czxid, mzxid, pzxid, ctime, mtime, version,
             cversion) in snap:
            if p == "/":
                root = store._root
                root.data = data
                root.stat = RefZnodeStat(czxid=czxid, mzxid=mzxid,
                                         pzxid=pzxid, ctime=ctime,
                                         mtime=mtime, version=version,
                                         cversion=cversion,
                                         data_length=len(data))
                continue
            parent_path, name = split_path(p)
            parent = store._walk(parent_path)
            assert parent is not None, f"snapshot out of order at {p}"
            stat = RefZnodeStat(czxid=czxid, mzxid=mzxid, pzxid=pzxid,
                                ctime=ctime, mtime=mtime, version=version,
                                cversion=cversion, data_length=len(data))
            node = _RefZnode(name, data, stat)
            parent.children[name] = node
            parent.stat.num_children = len(parent.children)
            store._count += 1
            store._bytes += ZNODE_BASE_OVERHEAD + len(p) + len(data) + ZNODE_PER_CHILD
        return store

    def fingerprint(self) -> int:
        """Order-independent digest of the full tree (replica comparison)."""
        acc = 0
        for path in self.walk_paths():
            node = self._walk(path)
            assert node is not None
            item = hash((path, node.data, node.stat.version,
                         node.stat.cversion))
            acc ^= item * 2654435761 % (1 << 61)
        return acc


# -- comparing the two ------------------------------------------------------
#: Paths every step probes, beside every path either store has held.
PROBES = ("/", "/a", "/b", "/a/b", "/a/c", "/b/a", "/a/b/c", "/nope/x")


def _stat(stat) -> Optional[tuple]:
    return None if stat is None else tuple(getattr(stat, f)
                                           for f in STAT_FIELDS)


def _outcome(fn, *args):
    """``fn(*args)``'s value, or the type of the ZK error it raised."""
    try:
        return fn(*args)
    except ZKError as e:
        return type(e)


def _read(store, path: str) -> tuple:
    got = _outcome(store.get, path)
    if isinstance(got, tuple):
        got = (got[0], _stat(got[1]))
    return (_stat(store.exists(path)), got,
            _outcome(store.get_children, path))


def _leaves_share_the_empty_mapping(store: ZnodeStore) -> None:
    stack = [store._root]
    while stack:
        node = stack.pop()
        if node.children:
            assert type(node.children) is dict
            stack.extend(node.children.values())
        else:
            assert node.children is _LEAF


def _agree(new: ZnodeStore, ref: RefZnodeStore, known: List[str]) -> None:
    for path in (*PROBES, *known):
        assert _read(new, path) == _read(ref, path), path
    assert isinstance(new.exists("/"), ZnodeStat)
    assert len(new) == len(ref)
    assert new.approx_memory_bytes == ref.approx_memory_bytes
    assert new.snapshot() == ref.snapshot()
    assert new.fingerprint() == ref.fingerprint()
    assert list(new.walk_paths()) == list(ref.walk_paths())
    _leaves_share_the_empty_mapping(new)


def _validate(store, op: tuple):
    """The leader's check for one op: its txn record, or the error type."""
    kind, path = op[0], op[1]
    try:
        if kind == "create":
            store.check_create(path)
            return ("create", path, op[2])
        if kind == "delete":
            store.check_delete(path, op[2])
            return ("delete", path)
        store.check_set_data(path, op[3])
        return ("set", path, op[2])
    except ZKError as e:
        return type(e)


def _validate_multi(store, ops: List[tuple], zxid: int, time: float):
    """A multi as the leader checks it: each op against a copy of the
    tree with the ops before it applied."""
    scratch = type(store).from_snapshot(store.snapshot())
    subs = []
    for op in ops:
        txn = _validate(scratch, op)
        if not isinstance(txn, tuple):
            return txn
        scratch.apply(txn, zxid, time)
        subs.append(txn)
    return ("multi", tuple(subs))


def _replay(stream: List[tuple]) -> None:
    new, ref = ZnodeStore(), RefZnodeStore()
    known: List[str] = []
    for zxid, (op, time) in enumerate(stream, start=1):
        if op[0] == "multi":
            txn = _validate_multi(new, op[1], zxid, time)
            assert txn == _validate_multi(ref, op[1], zxid, time), op
        else:
            txn = _validate(new, op)
            assert txn == _validate(ref, op), op
        if isinstance(txn, tuple):
            new.apply(txn, zxid, time)
            ref.apply(txn, zxid, time)
            subs = txn[1] if txn[0] == "multi" else (txn,)
            known.extend(s[1] for s in subs if s[1] not in known)
        _agree(new, ref, known)
    _agree(ZnodeStore.from_snapshot(new.snapshot()),
           RefZnodeStore.from_snapshot(ref.snapshot()), known)


# -- streams ------------------------------------------------------------------
#: Small, so ops collide.
names = st.sampled_from(["a", "b", "c"])
paths = st.lists(names, min_size=1, max_size=3).map(lambda cs: "/" + "/".join(cs))
payloads = st.binary(max_size=6)
versions = st.sampled_from([-1, -1, 0, 1])
creates = st.tuples(st.just("create"), paths, payloads)
deletes = st.tuples(st.just("delete"), paths, versions)
sets = st.tuples(st.just("set"), paths, payloads, versions)
single = creates | deletes | sets
ops = single | st.tuples(st.just("multi"),
                         st.lists(single, min_size=1, max_size=3))
#: Distinct, increasing instants: a set's mtime always differs from ctime.
steps = st.lists(ops, max_size=30).map(
    lambda os: [(op, 0.25 * (i + 1)) for i, op in enumerate(os)])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps)
def test_every_read_matches_the_old_store_after_every_step(stream):
    _replay(stream)


def test_a_directory_emptied_and_filled_again():
    stream = [("create", "/a", b"d"),
              ("create", "/a/b", b"x"),
              ("set", "/a/b", b"yy", -1),
              ("create", "/a/s", b""),
              ("delete", "/a/b", -1),
              ("delete", "/a/s", -1),
              ("create", "/a/c", b"z"),
              ("multi", [("delete", "/a/c", -1),
                         ("create", "/a/b", b"")]),
              ("delete", "/a/b", 0)]
    _replay([(op, 0.5 * (i + 1)) for i, op in enumerate(stream)])
