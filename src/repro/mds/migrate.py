"""Live subtree migration: copy-then-cutover on the intent journal.

Moving a subtree pin between shards (the elastic plane's split/merge
primitive) must not stop the namespace. The migrator runs the λFS-style
three-act protocol, journaled so every step is crash-safe:

1. **Journal + freeze.** A migration marker is written under the source
   shard's ``/.dufs-intent`` area (prefix ``b"M:"`` — deliberately *not*
   valid step-intent JSON, so :func:`~repro.mds.sharded.decode_intent`
   can never misread it as ensure/absent steps). From this moment the
   per-server route guards reject **writes** under the moving root with
   :class:`~repro.zk.errors.StaleShardMapError` carrying the migration;
   clients park on its ``done`` event and retry after cutover. Reads keep
   flowing to the source, which stays authoritative. A short drain pause
   lets writes admitted before the freeze commit, so the copy sees them.

2. **Copy.** The subtree is enumerated via the *old* map and re-created
   at its *new* placement through a private :class:`ShardedMDS` bound to
   the candidate map — reusing the exact anchor/placeholder machinery of
   normal creates. Copies are idempotent ensures (create, on NodeExists
   set-data), so a re-run after a crash converges.

3. **Cutover + cleanup.** The new map is installed in the
   :class:`~repro.mds.shardmap.ShardMapRegistry` (epoch + 1), the
   ``done`` event releases frozen writers, and the now-stale source
   copies are deleted best-effort (children first). Only then is the
   marker retired.

Crash-safety falls out of the auditor's authority rule (*the copy on the
shard the current map routes to is the authoritative one*): a crash
before cutover leaves the old map current — the frozen source is
complete and authoritative, partial destination copies are invisible; a
crash after cutover leaves the new map current — the destination copy is
complete (cutover happens only after the copy finishes) and the stale
source leftovers are invisible. A surviving marker tells the auditor a
migration was torn; rolling it forward is a no-op on the merged view.
"""

from __future__ import annotations

import itertools
import json
from typing import List, Optional, Sequence, Tuple

from ..zk.client import ZKClient
from ..zk.errors import NodeExistsError, NoNodeError, NotEmptyError, ZKError
from .sharded import INTENT_ROOT, PLACEHOLDER_DIR_DATA, ShardedMDS, \
    default_is_dir
from .shardmap import ShardMap, ShardMapRegistry

__all__ = ["MIGRATION_MARKER", "Migration", "Migrator",
           "encode_migration", "is_migration_marker"]

#: Marker prefix for migration intents. ``b"M:"`` followed by JSON is not
#: itself valid JSON, so legacy intent decoding raises ValueError instead
#: of misapplying the record as namespace steps.
MIGRATION_MARKER = b"M:"

#: Concurrent streams per migration phase (collect reads, copy writes,
#: cleanup deletes). The freeze on the moving subtree lasts as long as
#: the copy does, so copy bandwidth bounds write unavailability.
COPY_FANOUT = 8


def encode_migration(root: str, dst: Optional[int], from_epoch: int) -> bytes:
    body = json.dumps([root, -1 if dst is None else dst, from_epoch],
                      separators=(",", ":"))
    return MIGRATION_MARKER + body.encode()


def is_migration_marker(data: bytes) -> bool:
    return data.startswith(MIGRATION_MARKER)


class Migration:
    """One in-flight (or completed) subtree move, shared by reference:
    the registry lists it, route guards attach it to bounce errors, and
    frozen writers wait on :attr:`done`."""

    def __init__(self, root: str, src: int, dst: int, from_epoch: int,
                 done, merge: bool = False):
        self.root = root
        self.src = src                  # old child shard of root
        self.dst = dst                  # new child shard of root
        self.from_epoch = from_epoch
        self.done = done                # sim Event: cutover (or abort)
        self.merge = merge
        self.state = "copy"             # "copy" | "done" | "aborted"
        self.entries_copied = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        kind = "merge" if self.merge else "split"
        return (f"Migration({kind} {self.root} s{self.src}->s{self.dst}, "
                f"{self.state}, epoch {self.from_epoch})")


class Migrator:
    """Executes migrations against the live cluster.

    Owns a private set of per-shard clients (its requests are
    *unstamped*, so route guards wave them through — the migrator is the
    one party allowed to write under a frozen subtree) and a private
    :class:`ShardedMDS` whose map is rebound to whichever epoch a phase
    needs, reusing the production placement/anchor logic.
    """

    def __init__(self, registry: ShardMapRegistry,
                 clients: Sequence[ZKClient], drain: float = 0.05):
        if len(clients) != registry.current.n_shards:
            raise ValueError("need one migrator client per shard")
        self.registry = registry
        self.clients = list(clients)
        self.sim = self.clients[0].sim
        self.drain = drain
        self._seq = itertools.count(1)
        self.stats = {"splits": 0, "merges": 0, "aborted": 0,
                      "entries_copied": 0, "sweep_entries": 0,
                      "stale_copies_deleted": 0}

    # -- public entry points -------------------------------------------------
    def split(self, root: str, dst: int):
        """Pin ``root`` to shard ``dst`` (live). Generator; True on
        success, False if the copy failed and the move was aborted."""
        return self._migrate(root, dst)

    def merge(self, root: str):
        """Unpin ``root`` — its subtree migrates back to hash placement."""
        return self._migrate(root, None)

    def _migrate(self, root: str, dst: Optional[int]):
        cur = self.registry.current
        new_map = cur.merge(root) if dst is None else cur.split(root, dst)
        reason = f"merge {root}" if dst is None \
            else f"split {root} -> s{dst}"
        mig = Migration(root, src=cur.child_shard(root),
                        dst=new_map.child_shard(root),
                        from_epoch=cur.epoch, done=self.sim.event(),
                        merge=dst is None)
        # Migrations of *disjoint* roots may run concurrently (the
        # autoscaler executes a tick's batch in parallel), so each gets a
        # private service instance — its ``map`` is rebound per phase.
        mds = ShardedMDS(self.clients, shard_map=cur, name="migrator")
        self.registry.begin_migration(mig)
        try:
            ok = yield from self._run(mig, mds, cur, new_map, reason)
        finally:
            # Covers error exits AND the migrator's node crashing (the
            # Interrupt unwinds through here): never leave writers frozen
            # on an event that cannot fire.
            if mig.state == "copy":
                mig.state = "aborted"
                self.stats["aborted"] += 1
            if not mig.done.triggered:
                mig.done.succeed(None)
            self.registry.end_migration(mig)
        return ok

    # -- the three acts ------------------------------------------------------
    def _run(self, mig: Migration, mds: ShardedMDS, old_map: ShardMap,
             new_map: ShardMap, reason: str):
        # Act 1: journal the marker on the source shard; the guard freeze
        # is active as soon as the registry lists the copy-phase record,
        # so drain writes that were admitted before it.
        # The marker's own commit doubles as the write barrier: the route
        # guard re-checks at zxid assignment, so no write under the root
        # sequences after the freeze, and every surviving pre-freeze
        # write carries a smaller zxid than the marker. Replicas apply in
        # zxid order and a session's ack implies local apply, so once the
        # create below returns, the collect walk (same session) reads a
        # settled subtree. ``drain`` is belt-and-braces on top.
        marker = yield from self._journal(mig)
        if self.drain > 0:
            yield self.sim.timeout(self.drain)

        # Act 2: enumerate via the old map, re-create via the new one.
        # The freeze rejects writes at *admission*, but a write admitted
        # just before it can still be in the source's commit pipeline
        # when the walk passes its directory — the drain pause shrinks
        # that window, it does not bound it under queueing. So after the
        # bulk copy, sweep the subtree again (children listings only;
        # data is fetched just for paths the first walk missed) until a
        # pass finds nothing new. A subtree that will not settle means
        # the pipeline is wedged: abort, the source stays authoritative.
        entries: List[Tuple[str, bytes, bool]] = []
        try:
            root_data = yield from self._read_entry(mds, mig.root, old_map)
            entries = yield from self._collect(mds, mig.root, old_map)
            yield from self._copy(mds, mig, root_data, entries, new_map)
            for _ in range(4):
                extra = yield from self._sweep(mds, mig.root, entries,
                                               old_map)
                if not extra:
                    break
                self.stats["sweep_entries"] += len(extra)
                yield from self._copy(mds, mig, root_data, extra, new_map)
                entries.extend(extra)
            else:
                yield from self._retire(marker, mig.src)
                return False
        except ZKError:
            # Abort: routing is unchanged (source stays authoritative),
            # destination partials are invisible to it and idempotent to
            # re-run. Retire the marker if the source shard still answers.
            yield from self._retire(marker, mig.src)
            return False

        # Act 3: cutover — one registry install flips the epoch; every
        # stamped request routed by the old map now bounces to the new
        # placement. The pin delta is re-applied to the registry's *live*
        # map, not the candidate built at start: a concurrent migration of
        # a disjoint root may have installed in between, and its pin must
        # survive ours. The subtree's own placement is identical either
        # way (it depends only on this root's pin).
        cur = self.registry.current
        final = cur.merge(mig.root) if mig.merge \
            else cur.split(mig.root, mig.dst)
        self.registry.install(final, reason)
        mig.state = "done"
        mig.done.succeed(None)
        self.stats["merges" if mig.merge else "splits"] += 1
        yield from self._cleanup(mig, entries, old_map, final)
        yield from self._retire(marker, mig.src)
        return True

    # -- act helpers ---------------------------------------------------------
    def _journal(self, mig: Migration):
        zkc = self.clients[mig.src]
        try:
            yield from zkc.create(INTENT_ROOT, PLACEHOLDER_DIR_DATA)
        except NodeExistsError:
            pass
        path = f"{INTENT_ROOT}/migrate-{next(self._seq)}"
        dst = None if mig.merge else mig.dst
        yield from zkc.create(
            path, encode_migration(mig.root, dst, mig.from_epoch))
        return path

    def _read_entry(self, mds: ShardedMDS, path: str, shard_map: ShardMap):
        mds.map = shard_map
        data, _ = yield from mds.get(path)
        return data

    def _fanout(self, gens):
        """Run worker generators concurrently on the migrator's node and
        wait for all of them. The first failure is re-raised here, after
        every worker has stopped, so a dead shard aborts the migration
        through ``_run``'s normal path."""
        outcomes = yield from self.clients[0].node.gather(
            gens, "migrate.worker")
        for outcome in outcomes:
            outcome.result()

    def _collect(self, mds: ShardedMDS, root: str, old_map: ShardMap):
        """Pre-order walk of the subtree under ``root`` via the old map:
        parents precede children, so replaying the list as creates never
        hits a missing parent. Per-directory entry reads fan out
        ``COPY_FANOUT`` wide — the source shard is the hot one, and a
        serial walk behind its request queue would stretch the write
        freeze from milliseconds to seconds."""
        mds.map = old_map
        out: List[Tuple[str, bytes, bool]] = []
        stack = [root]
        while stack:
            d = stack.pop()
            try:
                names = yield from mds.get_children(d)
            except NoNodeError:
                continue
            paths = [f"{d}/{name}" if d != "/" else f"/{name}"
                     for name in sorted(names)]
            fetched: dict = {}

            def fetch(chunk):
                for p in chunk:
                    try:
                        data, _ = yield from mds.get(p)
                    except NoNodeError:
                        continue  # raced with a pre-freeze delete
                    fetched[p] = data
            yield from self._fanout(
                fetch(paths[w::COPY_FANOUT]) for w in range(COPY_FANOUT)
                if paths[w::COPY_FANOUT])
            for p in paths:
                if p not in fetched:
                    continue
                data = fetched[p]
                is_dir = default_is_dir(data)
                out.append((p, data, is_dir))
                if is_dir:
                    stack.append(p)
        return out

    def _sweep(self, mds: ShardedMDS, root: str,
               entries: Sequence[Tuple[str, bytes, bool]],
               old_map: ShardMap):
        """Re-list the subtree via the old map and return the entries the
        previous walk(s) missed — pre-freeze writes that committed behind
        the walk. Known paths cost one children-read per directory; data
        is fetched only for the stragglers."""
        mds.map = old_map
        known = {p for p, _data, _is_dir in entries}
        known_dirs = {p for p, _data, is_dir in entries if is_dir}
        out: List[Tuple[str, bytes, bool]] = []
        stack = [root]
        while stack:
            d = stack.pop()
            try:
                names = yield from mds.get_children(d)
            except NoNodeError:
                continue
            for name in sorted(names):
                p = f"{d}/{name}" if d != "/" else f"/{name}"
                if p in known:
                    if p in known_dirs:
                        stack.append(p)
                    continue
                try:
                    data, _ = yield from mds.get(p)
                except NoNodeError:
                    continue
                is_dir = default_is_dir(data)
                out.append((p, data, is_dir))
                if is_dir:
                    stack.append(p)
        return out

    def _copy(self, mds: ShardedMDS, mig: Migration, root_data: bytes,
              entries: Sequence[Tuple[str, bytes, bool]],
              new_map: ShardMap):
        mds.map = new_map
        # The moving directory's child-host anchor at its new shard: the
        # one piece its own entries' creates depend on.
        if new_map.child_shard(mig.root) != new_map.home_shard(mig.root):
            yield from mds._ensure_child_anchor(mig.root, root_data)

        def put(path, data):
            try:
                yield from mds.create(path, data)
            except NodeExistsError:
                yield from mds.set_data(path, data)
            mig.entries_copied += 1
            self.stats["entries_copied"] += 1

        # Directories first, serially, in pre-order: they are the copy's
        # dependency spine and there are few of them. Files then fan out.
        files = []
        for path, data, is_dir in entries:
            if is_dir:
                yield from put(path, data)
            else:
                files.append((path, data))

        def worker(chunk):
            for path, data in chunk:
                yield from put(path, data)
        yield from self._fanout(
            worker(files[w::COPY_FANOUT]) for w in range(COPY_FANOUT)
            if files[w::COPY_FANOUT])

    def _cleanup(self, mig: Migration, entries, old_map: ShardMap,
                 new_map: ShardMap):
        """Delete the now-stale copies at their old placement. Best-effort
        and idempotent: anything left behind is non-authoritative under
        the new (current) map, invisible to routing and to the auditor."""
        targets = set()  # (shard, path)
        old_child = old_map.child_shard(mig.root)
        root_home = new_map.home_shard(mig.root)
        if old_child != new_map.child_shard(mig.root) \
                and old_child != root_home:
            targets.add((old_child, mig.root))   # the old child-host anchor
        for path, _data, is_dir in entries:
            old_home = old_map.home_shard(path)
            new_home = new_map.home_shard(path)
            if old_home != new_home:
                targets.add((old_home, path))
            if is_dir:
                oc = old_map.child_shard(path)
                if oc != new_map.child_shard(path) and oc != new_home:
                    targets.add((oc, path))
        aborted = [False]

        def worker(chunk):
            for shard, path in chunk:
                if aborted[0]:
                    return
                try:
                    yield from self.clients[shard].delete(path)
                    self.stats["stale_copies_deleted"] += 1
                except (NoNodeError, NotEmptyError):
                    pass  # placeholder residue: invisible and harmless
                except ZKError:
                    # Shard unreachable: leave residue for the auditor.
                    aborted[0] = True
                    return

        # Depth by depth, deepest first (children before parents so
        # directory deletes find them empty); within a depth the deletes
        # are order-independent and fan out.
        by_depth: dict = {}
        for shard, path in targets:
            by_depth.setdefault(path.count("/"), []).append((shard, path))
        for depth in sorted(by_depth, reverse=True):
            level = sorted(by_depth[depth])
            yield from self._fanout(
                worker(level[w::COPY_FANOUT]) for w in range(COPY_FANOUT)
                if level[w::COPY_FANOUT])
            if aborted[0]:
                return

    def _retire(self, marker: str, src: int):
        try:
            yield from self.clients[src].delete(marker)
        except ZKError:
            pass
