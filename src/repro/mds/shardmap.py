"""Deterministic namespace → shard routing, versioned by epoch.

The default strategy is **hash-of-parent-directory**: every entry of one
directory lands on the same shard (``MD5(parent) mod N``), so the common
metadata operations — create/lookup/unlink of a name, readdir of a
directory — are shard-local, while unrelated directories spread across
shards. This is the placement λFS and IndexFS converge on: it keeps the
namespace's hot mutation unit (a directory's entry set) on one quorum.

Placement invariants under hash-of-parent:

- the znode *entry* for ``path`` lives on its **home shard**
  ``hash(parent(path)) mod N``;
- the *children* of ``path`` all live on its **child shard**
  ``hash(path) mod N``. A directory therefore materializes on up to two
  shards: the authoritative home copy, plus a child-host copy that
  anchors its entries' parent chain (see ``ShardedMDS``).

``subtrees`` adds explicit longest-prefix pinning on top
(``subtrees={"/scratch": 1, "/home": 0}``): whole subtrees are routed to
a fixed shard, with the hash as fallback — the pluggable partitioning the
operator uses to keep a workload's tree quorum-local. A map with pins
reports ``strategy == "subtree"``, one without ``"parent-hash"``.

Since the elastic-plane refactor a ``ShardMap`` is **immutable per
epoch**: routing changes (moving a subtree pin between shards) produce a
*new* map via :meth:`ShardMap.split` / :meth:`ShardMap.merge` with
``epoch + 1``, and :meth:`ShardMap.diff` reports which subtree roots
route differently between two epochs. The shared
:class:`ShardMapRegistry` is the control-plane record of which epoch is
current, the full epoch history, and the set of in-flight migrations —
it is what the per-server route guards and the offline namespace auditor
consult.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.paths import parent_dir
from ..hashing.md5 import md5_int

__all__ = ["ShardMap", "ShardMapRegistry", "parent_dir"]


class ShardMap:
    """Pure, deterministic path → shard function (no I/O, immutable)."""

    def __init__(self, n_shards: int,
                 subtrees: Optional[Dict[str, int]] = None,
                 epoch: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.n_shards = n_shards
        self.subtrees = dict(subtrees or {})
        self.epoch = epoch
        for prefix, shard in self.subtrees.items():
            if not prefix.startswith("/"):
                raise ValueError(f"subtree prefix {prefix!r} not absolute")
            if not 0 <= shard < n_shards:
                raise ValueError(f"subtree shard {shard} out of range")
        self._frozen = True

    # -- immutability -------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                f"ShardMap is immutable per epoch; use split()/merge() to "
                f"derive epoch {self.epoch + 1} (tried to set {name!r})")
        object.__setattr__(self, name, value)

    @property
    def strategy(self) -> str:
        """The placement in force: ``"subtree"`` iff there are pins."""
        return "subtree" if self.subtrees else "parent-hash"

    # -- the two placement questions ----------------------------------------
    def home_shard(self, path: str) -> int:
        """Shard holding the znode entry for ``path``."""
        if path == "/":
            return self.dir_shard("/")
        return self.dir_shard(parent_dir(path))

    def child_shard(self, path: str) -> int:
        """Shard holding the child entries of directory ``path``."""
        return self.dir_shard(path)

    def dir_shard(self, dirpath: str) -> int:
        """The shard that owns ``dirpath``'s entry set."""
        if self.n_shards == 1:
            return 0
        pinned = self._pinned(dirpath)
        if pinned is not None:
            return pinned
        return md5_int(dirpath.encode()) % self.n_shards

    def _pinned(self, dirpath: str) -> Optional[int]:
        """Longest-prefix subtree pin covering ``dirpath`` (or None)."""
        best_len, best = -1, None
        for prefix, shard in self.subtrees.items():
            if dirpath == prefix or dirpath.startswith(prefix + "/"):
                if len(prefix) > best_len:
                    best_len, best = len(prefix), shard
        return best

    # -- epoch-deriving constructors ----------------------------------------
    def split(self, root: str, shard: int) -> "ShardMap":
        """New map (epoch + 1) pinning subtree ``root`` to ``shard``.

        "Split" in the λFS sense: the hot shard's namespace slice is split
        by carving ``root`` out of it and pinning it elsewhere. Re-pinning
        an already-pinned root to a different shard is also a split.
        """
        if not root.startswith("/") or root == "/":
            raise ValueError(f"split root {root!r} must be absolute, not /")
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"split shard {shard} out of range")
        if self.subtrees.get(root) == shard:
            raise ValueError(f"{root!r} already pinned to shard {shard}")
        pins = dict(self.subtrees)
        pins[root] = shard
        return ShardMap(self.n_shards, pins, epoch=self.epoch + 1)

    def merge(self, root: str) -> "ShardMap":
        """New map (epoch + 1) dropping the pin on ``root``.

        The subtree merges back into its hash-of-parent home shard (or an
        enclosing pin, longest prefix wins again).
        """
        if root not in self.subtrees:
            raise ValueError(f"{root!r} is not pinned")
        pins = dict(self.subtrees)
        del pins[root]
        return ShardMap(self.n_shards, pins, epoch=self.epoch + 1)

    # -- structural diff ----------------------------------------------------
    def diff(self, other: "ShardMap") -> List[str]:
        """Subtree roots routed differently by ``self`` vs ``other``.

        Returns the sorted union of pin roots added, removed, or
        retargeted between the two maps — exactly the subtrees whose
        entries may live on a different shard, hence what a client cache
        must invalidate on adopting the new epoch.
        """
        if self.n_shards != other.n_shards:
            raise ValueError("cannot diff maps with different shard counts")
        roots = set(self.subtrees) | set(other.subtrees)
        return sorted(r for r in roots
                      if self.subtrees.get(r) != other.subtrees.get(r))

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        extra = f", subtrees={self.subtrees}" if self.subtrees else ""
        return (f"ShardMap(n_shards={self.n_shards}, "
                f"strategy={self.strategy!r}{extra}, epoch={self.epoch})")


class ShardMapRegistry:
    """Shared control-plane record of the routing state.

    One registry per elastic deployment, consulted by three parties:

    - every ZK server's **route guard** asks whether a request stamped
      with an old epoch would route differently today
      (:meth:`routing_changed`) and whether a write falls under an
      in-flight migration's frozen subtree (:meth:`blocking_migration`);
    - every :class:`~repro.mds.sharded.ShardedMDS` **adopts**
      :attr:`current` after a ``StaleShardMapError`` (adoption is lazy —
      clients learn of a flip the first time a stale request is
      bounced, exactly like MetaFlow's versioned routing);
    - the offline **namespace auditor** takes :attr:`current` as the
      authoritative placement when merging per-shard views.

    ``listeners`` fire synchronously on :meth:`install` with
    ``(new_map, changed_roots)`` — used by the migrator/autoscaler for
    bookkeeping, not for client adoption.
    """

    def __init__(self, initial: ShardMap):
        self.current = initial
        #: [(epoch, map, reason)] — full install history, oldest first.
        self.history: List[Tuple[int, ShardMap, str]] = \
            [(initial.epoch, initial, "initial")]
        self._by_epoch: Dict[int, ShardMap] = {initial.epoch: initial}
        self.migrations: List[object] = []   # in-flight Migration records
        self.completed: List[object] = []    # finished/aborted migrations
        self.listeners: List[Callable[[ShardMap, List[str]], None]] = []

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def install(self, new_map: ShardMap, reason: str = "") -> List[str]:
        """Make ``new_map`` current; returns the changed subtree roots."""
        if new_map.epoch != self.current.epoch + 1:
            raise ValueError(
                f"epoch must advance by 1: current {self.current.epoch}, "
                f"got {new_map.epoch}")
        old = self.current
        self.current = new_map
        self.history.append((new_map.epoch, new_map, reason))
        self._by_epoch[new_map.epoch] = new_map
        roots = old.diff(new_map)
        for fn in self.listeners:
            fn(new_map, roots)
        return roots

    def routing_changed(self, epoch: int, path: str) -> bool:
        """Would a request stamped at ``epoch`` route ``path`` differently
        under the current map? Unknown (pruned) epochs are conservatively
        treated as changed."""
        if epoch == self.current.epoch:
            return False
        old = self._by_epoch.get(epoch)
        if old is None:
            return True
        cur = self.current
        return (old.home_shard(path) != cur.home_shard(path)
                or old.child_shard(path) != cur.child_shard(path))

    # -- migration bookkeeping ----------------------------------------------
    def begin_migration(self, mig) -> None:
        self.migrations.append(mig)

    def end_migration(self, mig) -> None:
        if mig in self.migrations:
            self.migrations.remove(mig)
        self.completed.append(mig)

    def blocking_migration(self, path: str):
        """The in-flight copy-phase migration freezing writes to ``path``
        (or None). A write under a moving subtree must wait for cutover."""
        for mig in self.migrations:
            if mig.state == "copy" and (path == mig.root
                                        or path.startswith(mig.root + "/")):
                return mig
        return None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (f"ShardMapRegistry(epoch={self.epoch}, "
                f"pins={len(self.current.subtrees)}, "
                f"in_flight={len(self.migrations)})")
