"""The DUFS client's read side: one lookup chain, assembled once.

Every lookup — ``stat``, ``readdir``, ``access``, the parent checks of
``create``/``mkdir`` — is the paper's "step B of Fig. 3" (path → znode →
FID) and runs the same three stages in the same order:

1. **pending-write overlay** (always present, empty unless a write-behind
   log feeds it, :mod:`repro.core.wblog`): an acked-but-uncommitted
   mutation answers for its path locally — a pending create/set is
   served (read-your-writes), a pending delete is a miss, listings are
   adjusted by the directory's pending children. The overlay belongs to
   the client's write path, not the coherence machinery: watch events,
   flushes and map changes never touch it. Entries retire as the drain
   commits (:meth:`MDCache.overlay_commit`) or roll back, purging what
   was remembered around them, when the quorum rejects
   (:meth:`MDCache.overlay_reject`).
2. **coherent cache** (:class:`CoherentMDCache`; the stage exists only
   when ``CacheParams.enabled``) — FalconFS/λFS-style client caching kept
   coherent by one-shot ZooKeeper watches: *positive entries* (path →
   payload + znode stat, dropped by the data watch registered with the
   read that filled them), TTL-bounded *negative entries* (no watch, so
   off by default), *readdir listings* (dropped by their child watch; the
   readdir-plus child lookups fill positive entries, so ``ls -l`` is
   served from cache), *read coalescing* (concurrent same-path lookups
   share one in-flight RPC) and the *watch-loss flush* on session
   re-establishment or fail-over — per shard behind a sharded service.
3. **source** — one RPC: the paper's znode ``get``, or the thin client's
   server-side ``resolve``. Only the source differs between the two
   clients; both yield ``(payload, znode stat)`` or a ``NoNodeError``.

:class:`MDCache` is stages 1 + 3 and the *virtual-directory dcache* (the
kernel-dcache parent-type checks the real prototype gets from VFS); it is
the whole read side of a cache-off client, whose RPC stream is
byte-identical to the paper's. Directory kills have one code path:
``rmdir``, ``rename`` and shard-map changes all funnel through
:meth:`MDCache.invalidate_subtree`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..models.params import CacheParams
from ..sim.core import Event
from ..svc import NULL_BUS, TraceBus
from ..zk.data import ZnodeStat
from ..zk.errors import NoNodeError
from ..zk.protocol import WatchEvent
from .metadata import DirPayload, decode_payload
from .paths import ancestors, basename, is_ancestor, parent_dir


#: LRU bounds of the two side tables (positive entries are bounded by
#: ``CacheParams.capacity``).
LISTING_CAPACITY = 512
NEGATIVE_CAPACITY = 1024


class ResolveMiss(NoNodeError):
    """A miss the source already classified: the ``resolve`` reply names
    the nearest existing ancestor, so no parent walk is needed —
    ``not_dir`` says that ancestor is a file or symlink (ENOTDIR, else
    ENOENT). Served locally (a cached negative, a pending delete) it is
    ENOENT: the thin chain only remembers ENOENT-classified misses."""

    def __init__(self, path: str, not_dir: bool = False):
        super().__init__(path)
        self.not_dir = not_dir


@dataclass
class _Entry:
    """One positive cache entry: decoded payload + znode stat snapshot."""

    payload: Any
    zstat: Any
    expires: Optional[float]        # None = no TTL bound (watch-coherent)


@dataclass
class _Pending:
    """One acked-but-uncommitted write-behind mutation layered over the
    cache. ``seq`` is the mutation-log sequence of the *latest* pending
    op on the path, so an earlier op's commit never retires a newer
    pending state."""

    kind: str                       # "create" | "delete" | "set"
    payload: Any                    # decoded payload (None for deletes)
    zstat: Any                      # synthesized stat served until commit
    seq: int


class MDCache:
    """The lookup chain without a cache stage — dcache, overlay, source
    (see module docstring); :class:`CoherentMDCache` adds the stage.

    ``thin`` selects the source: the paper's ``get`` (a miss is a plain
    ``NoNodeError``, classified by the client's parent walk) or the thin
    client's ``resolve`` (a miss is a :class:`ResolveMiss`). Real reads
    are charged to ``client_stats["zk_reads"]``, the owning client's
    counters, whichever stages exist.
    """

    COUNTERS = ("hits", "misses", "neg_hits", "listing_hits",
                "listing_misses", "coalesced", "invalidations",
                "watch_invalidations", "flushes", "evictions",
                "overlay_hits", "overlay_commits", "overlay_rejects")

    def __init__(
        self,
        node,
        zk,
        params: CacheParams,
        client_stats: Dict[str, int],
        bus: Optional[TraceBus] = None,
        endpoint: str = "mdcache",
        thin: bool = False,
    ):
        self.node = node
        self.sim = node.sim
        self.zk = zk
        self.params = params
        self.client_stats = client_stats
        self.bus = bus if bus is not None else NULL_BUS
        self.endpoint = endpoint
        self.counters: Dict[str, int] = {k: 0 for k in self.COUNTERS}
        # The source, and the miss a locally served absence raises for it.
        self._fetch = self._fetch_resolve if thin else self._fetch_get
        self._miss = ResolveMiss if thin else NoNodeError
        # The virtual-directory dcache: paths known to be directories.
        self._dirs: set = set()
        # Pending-write overlay (write-behind mode): path -> _Pending.
        # Empty unless a WriteBehindLog feeds it; the hot-path cost when
        # async mode is off is one falsy-dict test per lookup.
        self._overlay: Dict[str, _Pending] = {}

    # -- bookkeeping --------------------------------------------------------
    def _mark(self, kind: str) -> None:
        self.counters[kind] += 1
        if self.bus is not NULL_BUS:
            self.bus.mark("mdcache", self.endpoint, kind, self.sim.now)

    def __len__(self) -> int:
        return 0

    # -- virtual-directory dcache -------------------------------------------
    def known_dir(self, path: str) -> bool:
        if self._overlay:
            pend = self._overlay.get(path)
            if pend is not None:
                return pend.kind != "delete" \
                    and isinstance(pend.payload, DirPayload)
        return path in self._dirs

    def note_dir(self, path: str) -> None:
        self._dirs.add(path)

    # -- pending-write overlay (write-behind mode) ---------------------------
    def overlay_put(self, path: str, kind: str, payload: Any,
                    seq: int) -> None:
        """Layer one acked-but-uncommitted mutation over the cache. The
        synthesized stat serves approximate ctime/mtime until the drain
        commits and the real znode becomes readable."""
        now = self.sim.now
        zstat = None if kind == "delete" \
            else ZnodeStat(ctime=now, mtime=now)
        self._overlay[path] = _Pending(kind, payload, zstat, seq)

    def overlay_pending(self, path: str) -> Optional[str]:
        """The pending mutation kind for ``path`` (None when clean)."""
        pend = self._overlay.get(path)
        return pend.kind if pend is not None else None

    def overlay_commit(self, path: str, seq: int) -> None:
        """The drain committed op ``seq``: retire the pending entry (the
        committed znode is now the authority). A newer pending op on the
        same path keeps the overlay in place."""
        pend = self._overlay.get(path)
        if pend is not None and pend.seq == seq:
            del self._overlay[path]
            self.counters["overlay_commits"] += 1

    def overlay_reject(self, path: str, seq: int) -> None:
        """The quorum rejected op ``seq``: roll the optimistic state
        back — drop the pending entry and purge everything remembered
        about the path (the local view was provably wrong)."""
        self.overlay_forget(path, seq)
        self._purge(path)
        self.counters["overlay_rejects"] += 1

    def overlay_forget(self, path: str, seq: int) -> None:
        """Crash path: drop a pending entry without the reject
        bookkeeping — the write-behind log lost the op with its node, and
        a restarted client must not keep serving the ghost."""
        pend = self._overlay.get(path)
        if pend is not None and pend.seq == seq:
            del self._overlay[path]

    def _purge(self, path: str) -> None:
        self._dirs.discard(path)

    def _pending_payload(self, pend: _Pending, path: str) -> Tuple[Any, Any]:
        """Read-your-writes: a pending path is answered locally — no
        RPC, no coalescing (it never reaches the in-flight table)."""
        self.counters["overlay_hits"] += 1
        if pend.kind == "delete":
            raise self._miss(path)
        return pend.payload, pend.zstat

    def _pending_listing(self, pend: _Pending, path: str) -> List[str]:
        """A pending-created directory has no committed znode to list;
        its children are exactly the overlay's pending creates beneath
        it (nothing else can exist under an uncommitted name)."""
        self.counters["overlay_hits"] += 1
        if pend.kind == "delete":
            raise NoNodeError(path)
        return self._overlay_adjust(path, [])

    def _overlay_adjust(self, parent: str, names: List[str]) -> List[str]:
        """Apply pending creates/deletes under ``parent`` to a listing.
        Never applied to the *stored* listing — overlay state retires on
        commit, cached listings retire on watch events."""
        if not self._overlay:
            return names
        names = list(names)
        present = set(names)
        for path, pend in self._overlay.items():
            if parent_dir(path) != parent or path == parent:
                continue
            name = basename(path)
            if pend.kind == "delete":
                if name in present:
                    present.discard(name)
                    names.remove(name)
            elif name not in present:
                present.add(name)
                names.append(name)
        return names

    # -- lookups -------------------------------------------------------------
    def get_payload(self, path: str) -> Generator:
        """Resolve ``path`` to (decoded payload, znode stat).

        Raises the raw ZooKeeper errors; a miss is the source's
        ``NoNodeError`` (see :class:`ResolveMiss`), which the client maps
        to ENOENT/ENOTDIR.
        """
        if self._overlay:
            pend = self._overlay.get(path)
            if pend is not None:
                return self._pending_payload(pend, path)
        return (yield from self._fetch(path))

    def get_children(self, path: str) -> Generator:
        """Child-name listing for ``path``."""
        if self._overlay:
            pend = self._overlay.get(path)
            if pend is not None and pend.kind != "set":
                return self._pending_listing(pend, path)
        self.client_stats["zk_reads"] += 1
        names = yield from self.zk.get_children(path)
        return self._overlay_adjust(path, names)

    # -- the two sources -----------------------------------------------------
    def _fetch_get(self, path: str, watch=None) -> Generator:
        """The paper's source: one znode read (charged to the client's
        ``zk_reads``). A miss proves only ``path`` itself absent."""
        self.client_stats["zk_reads"] += 1
        try:
            data, zstat = yield from self.zk.get(path, watch=watch)
        except NoNodeError:
            self.note_missing(path)
            raise
        return decode_payload(data), zstat

    def _fetch_resolve(self, path: str, watch=None) -> Generator:
        """The thin client's source: one server-side ``resolve`` RPC at
        any depth. An ENOENT-classified miss (nearest existing ancestor
        is a directory — remembered as one) proves the target *and*
        every intermediate component below that ancestor absent."""
        self.client_stats["zk_reads"] += 1
        res = yield from self.zk.resolve(path, watch=watch)
        if res.status == "ok":
            return decode_payload(res.data), res.stat
        under_dir = res.ancestor == "/" or isinstance(
            decode_payload(res.ancestor_data), DirPayload)
        if under_dir:
            if res.ancestor != "/":
                self._dirs.add(res.ancestor)
            for a in ancestors(path):
                if res.ancestor == "/" or is_ancestor(res.ancestor, a):
                    self.note_missing(a)
            self.note_missing(path)
        raise ResolveMiss(path, not_dir=not under_dir)

    # -- what the client tells the chain -------------------------------------
    def known_missing(self, path: str) -> bool:
        """Is ``path`` provably absent without a read? Lets the client's
        parent-walk miss classification skip re-probing components."""
        pend = self._overlay.get(path)
        return pend is not None and pend.kind == "delete"

    def note_missing(self, path: str) -> None:
        """A read proved ``path`` absent (only a cache stage remembers)."""

    def note_created(self, path: str, is_dir: bool = False) -> None:
        """After a successful create/mkdir/symlink through this client."""
        if is_dir:
            self._dirs.add(path)

    def note_removed(self, path: str) -> None:
        """After unlink/rmdir: kill the path (and, for a directory, any
        stale descendants — one code path for every directory kill)."""
        if path in self._dirs:
            self.invalidate_subtree(path)

    def note_changed(self, path: str) -> None:
        """After set_data/chmod through this client."""

    def invalidate_subtree(self, root: str) -> None:
        """Drop ``root`` and everything remembered beneath it — the
        single directory-kill code path used by rmdir, rename, and
        shard-map changes."""
        prefix = root + "/"
        n = len(prefix)
        self._dirs -= {d for d in self._dirs
                       if d == root or d[:n] == prefix}


class CoherentMDCache(MDCache):
    """The chain *with* its cache stage: positive / negative / listing
    tables and read coalescing between overlay and source, kept coherent
    by one-shot ZooKeeper watches (see module docstring)."""

    def __init__(self, node, zk, *args, **kwargs):
        super().__init__(node, zk, *args, **kwargs)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._negatives: "OrderedDict[str, float]" = OrderedDict()
        self._listings: "OrderedDict[str, Tuple[Tuple[str, ...], Optional[float]]]" = OrderedDict()
        # Paths with a registered-and-unfired watch: one watch covers both
        # the entry and the listing for a path, and is re-registered on the
        # first fetch after it fires (one-shot semantics).
        self._watched: set = set()
        # In-flight lookups (read coalescing): path -> waiter event.
        self._inflight: Dict[str, Event] = {}
        zk.watch_loss_listeners.append(self._on_watch_loss)
        # Elastic plane: when the service adopts a newer shard map
        # (stale-epoch bounce), the subtrees whose routing changed
        # moved shards — the watches backing their entries live on
        # the old shard's ensemble and no longer protect them.
        if hasattr(zk, "map_change_listeners"):
            zk.map_change_listeners.append(self._on_map_change)

    def __len__(self) -> int:
        return len(self._entries)

    def known_dir(self, path: str) -> bool:
        if path in self._dirs or path in self._overlay:
            return super().known_dir(path)
        ent = self._entries.get(path)
        return ent is not None and isinstance(ent.payload, DirPayload) \
            and (ent.expires is None or self.sim.now < ent.expires)

    # -- lookups -------------------------------------------------------------
    def get_payload(self, path: str) -> Generator:
        """The whole chain in one frame: overlay, positive entry,
        negative entry, then one coalesced trip to the source."""
        if self._overlay:
            pend = self._overlay.get(path)
            if pend is not None:
                return self._pending_payload(pend, path)
        p = self.params
        now = self.sim.now
        ent = self._entries.get(path)
        if ent is not None:
            if ent.expires is None or now < ent.expires:
                self._entries.move_to_end(path)
                self._mark("hits")
                if p.hit_cpu:
                    yield from self.node.cpu_work(p.hit_cpu)
                return ent.payload, ent.zstat
            del self._entries[path]             # TTL expired
        neg_exp = self._negatives.get(path)
        if neg_exp is not None:
            if now < neg_exp:
                self._mark("neg_hits")
                if p.hit_cpu:
                    yield from self.node.cpu_work(p.hit_cpu)
                raise self._miss(path)
            del self._negatives[path]
        # Read coalescing: concurrent same-path lookups share one RPC.
        waiter = self._inflight.get(path)
        if waiter is not None:
            self._mark("coalesced")
            return (yield waiter)               # (payload, zstat), or raises
        ev = self._inflight[path] = self.sim.event()
        self._mark("misses")
        watch = None if path in self._watched else self._on_watch
        try:
            found = yield from self._fetch(path, watch)
        except BaseException as exc:
            del self._inflight[path]
            ev.fail(exc)
            ev._used = True         # pre-handled: waiters are optional
            raise
        del self._inflight[path]
        ev.succeed(found)
        if watch is not None:
            self._watched.add(path)
        self._store(path, *found)
        return found

    def get_children(self, path: str) -> Generator:
        """Child-name listing for ``path``, cached with a child watch."""
        if self._overlay:
            pend = self._overlay.get(path)
            if pend is not None and pend.kind != "set":
                return self._pending_listing(pend, path)
        p = self.params
        cached = self._listings.get(path)
        if cached is not None:
            names, expires = cached
            if expires is None or self.sim.now < expires:
                self._listings.move_to_end(path)
                self._mark("listing_hits")
                if p.hit_cpu:
                    yield from self.node.cpu_work(p.hit_cpu)
                return self._overlay_adjust(path, list(names))
            del self._listings[path]
        self._mark("listing_misses")
        self.client_stats["zk_reads"] += 1
        watch = None if path in self._watched else self._on_watch
        names = yield from self.zk.get_children(path, watch=watch)
        if watch is not None:
            self._watched.add(path)
        expires = self.sim.now + p.ttl if p.ttl > 0 else None
        self._listings[path] = (tuple(names), expires)
        self._listings.move_to_end(path)
        while len(self._listings) > LISTING_CAPACITY:
            self._listings.popitem(last=False)
            self.counters["evictions"] += 1
        return self._overlay_adjust(path, names)

    def _store(self, path: str, payload: Any, zstat: Any) -> None:
        p = self.params
        self._negatives.pop(path, None)
        expires = self.sim.now + p.ttl if p.ttl > 0 else None
        self._entries[path] = _Entry(payload, zstat, expires)
        self._entries.move_to_end(path)
        if isinstance(payload, DirPayload):
            self._dirs.add(path)
        while len(self._entries) > p.capacity:
            self._entries.popitem(last=False)
            self.counters["evictions"] += 1

    # -- negatives -----------------------------------------------------------
    def known_missing(self, path: str) -> bool:
        if path in self._overlay:
            return super().known_missing(path)
        neg_exp = self._negatives.get(path)
        if neg_exp is None:
            return False
        if self.sim.now < neg_exp:
            return True
        del self._negatives[path]
        return False

    def note_missing(self, path: str) -> None:
        """Record ``path`` as absent, TTL-bounded (negatives carry no
        watch, so ``negative_ttl`` 0 keeps them off)."""
        p = self.params
        if p.negative_ttl <= 0:
            return
        self._negatives[path] = self.sim.now + p.negative_ttl
        self._negatives.move_to_end(path)
        while len(self._negatives) > NEGATIVE_CAPACITY:
            self._negatives.popitem(last=False)
            self.counters["evictions"] += 1

    # -- invalidation --------------------------------------------------------
    def _invalidate_path(self, path: str, kind: Optional[str] = "invalidations") -> None:
        dropped = self._entries.pop(path, None) is not None
        dropped |= self._listings.pop(path, None) is not None
        dropped |= self._negatives.pop(path, None) is not None
        if dropped and kind:
            self._mark(kind)

    def _purge(self, path: str) -> None:
        super()._purge(path)
        self._invalidate_path(path, kind=None)
        self._listings.pop(parent_dir(path), None)

    def note_created(self, path: str, is_dir: bool = False) -> None:
        """Read-your-writes after a successful create/mkdir/symlink: the
        path is no longer a negative and the parent's listing grew. A
        successful create also proves every ancestor exists, so any
        stale negative-chain entries for them (recorded by an earlier
        failed walk under a then-missing intermediate) are purged too —
        otherwise a path created under them would keep serving ENOENT
        until the negatives' TTL expired."""
        super().note_created(path, is_dir)
        self._negatives.pop(path, None)
        if self._negatives:
            for anc in ancestors(path):
                self._negatives.pop(anc, None)
        self._listings.pop(parent_dir(path), None)

    def note_removed(self, path: str) -> None:
        if path in self._dirs or path in self._entries:
            self.invalidate_subtree(path)
        else:
            self._invalidate_path(path)
        self._listings.pop(parent_dir(path), None)

    def note_changed(self, path: str) -> None:
        """After set_data/chmod through this client: entry is stale."""
        self._invalidate_path(path)

    def invalidate_subtree(self, root: str) -> None:
        super().invalidate_subtree(root)
        prefix = root + "/"
        n = len(prefix)
        hit = False
        for table in (self._entries, self._listings, self._negatives):
            for path in [k for k in table
                         if k == root or k[:n] == prefix]:
                del table[path]
                hit = True
        if hit:
            self._mark("invalidations")

    # -- coherence events ----------------------------------------------------
    def _on_watch(self, event: WatchEvent) -> None:
        """One-shot ZooKeeper watch fired: the znode (or its child list)
        changed behind our back — drop everything cached for the path."""
        self._watched.discard(event.path)
        if event.kind == "deleted":
            self._dirs.discard(event.path)
        self._invalidate_path(event.path, kind="watch_invalidations")

    def _on_map_change(self, roots) -> None:
        """Shard-map epoch adopted: flush every subtree whose placement
        changed (``flush_shard`` semantics scoped to the moved roots)."""
        for root in roots:
            self.invalidate_subtree(root)
            self._mark("flushes")

    def _on_watch_loss(self, reason: str, shard: Optional[int] = None) -> None:
        """Session re-established or server fail-over: the watches this
        cache relies on may be gone. A raw ZKClient notifies ``(reason,)``
        — flush wholesale; a sharded MetadataService notifies ``(reason,
        shard)`` — flush only the slice whose watches lived there."""
        if shard is None or getattr(self.zk, "n_shards", 1) <= 1:
            self.flush()
        else:
            self.flush_shard(shard)

    def flush(self) -> None:
        """Drop every cached coherence-dependent table. The pending-write
        overlay deliberately survives (here and in :meth:`flush_shard`):
        it mirrors this client's own acked-but-uncommitted writes, whose
        truth does not depend on any watch registration."""
        if not (self._entries or self._listings or self._negatives
                or self._dirs or self._watched):
            return
        self._entries.clear()
        self._listings.clear()
        self._negatives.clear()
        self._watched.clear()
        self._dirs.clear()
        self._mark("flushes")

    def flush_shard(self, shard: int) -> None:
        """Drop only the slice whose coherence watches lived on ``shard``:
        entries/negatives route by the path's home shard, listings by its
        child-hosting shard (where the child watch was registered)."""
        home = self.zk.shard_for
        listing = self.zk.listing_shard_for
        dropped = False
        for table, by in ((self._entries, home), (self._negatives, home),
                          (self._listings, listing)):
            for path in [p for p in table if by(p) == shard]:
                del table[path]
                dropped = True
        self._watched -= {p for p in self._watched
                          if home(p) == shard or listing(p) == shard}
        self._dirs -= {p for p in self._dirs if home(p) == shard}
        if dropped:
            self._mark("flushes")


def aggregate_counters(caches: List[MDCache]) -> Dict[str, int]:
    """Sum per-client cache counters (bench/CLI reporting helper)."""
    out: Dict[str, int] = {k: 0 for k in MDCache.COUNTERS}
    for cache in caches:
        for k, v in cache.counters.items():
            out[k] += v
    return out
