"""Sharded metadata service: the namespace over N independent ensembles.

The paper's own Fig. 7/8 show the limitation this class removes: one
ZooKeeper ensemble scales *reads* with server count but write throughput
*degrades*, because every mutation pays one quorum round over the whole
replica group. ``ShardedMDS`` partitions the namespace across N small,
independent ensembles with a deterministic
:class:`~repro.mds.shardmap.ShardMap` (hash-of-parent-directory by
default), so shard-local writes — the overwhelming majority under
mdtest-style workloads — each touch one small quorum, and N leaders
commit in parallel.

Placement (hash-of-parent):

- a **file/symlink** znode lives only on its *home shard*
  ``hash(parent) mod N``;
- a **directory** materializes on up to two shards: the authoritative
  *home copy* on ``hash(parent) mod N`` (what ``stat``/lookup read) and a
  *child-host copy* on ``hash(path) mod N`` that anchors the parent chain
  for its entries (ZooKeeper refuses to create a child under a missing
  parent). ``readdir`` asks the child-host shard, where ALL of a
  directory's entries live by construction. Deeper anchors are completed
  with placeholder directory znodes on demand, deepest-first;
  placeholders are never visible to listings (a shard only serves the
  listings of directories it child-hosts, and for those the home copy is
  the anchor).

The two copies are written **concurrently** and ``mkdir`` returns when
both have committed; a failed anchor takes the home copy back, and an
entry create that finds its parent's anchor missing while the parent
exists at its home waits under the shard client's retry policy, writing
nothing for the parent (contract C1-C4 and crash matrix: MODEL.md §9).
``rmdir`` keeps two serial deletes — emptiness is decided on the
child-host copy before the visible copy goes — and reclaims the
placeholders a home copy still holds for descendants long removed.

Cross-shard operations (a rename whose source and destination route to
different shards, a subtree move spanning shards) run as a **two-phase
intent protocol**: the operation is normalized to idempotent
``ensure(path, data)`` / ``absent(path)`` steps, journaled as an *intent
record* znode in the **source shard** (``/.dufs-intent/…``), then applied
— all ensures (parents first), then all absents (children first) — and
finally the intent is retired. A crash mid-operation can leave both names
alive but never neither, and the surviving intent record lets the
namespace auditor roll the operation forward offline
(:func:`apply_intent_to_view`), so a post-chaos audit reconciles to a
clean namespace.

A dead shard (crashed leader, partitioned ensemble) degrades only its
namespace slice: operations routing to it exhaust their retry budget and
fail, while every other shard keeps serving — mirroring the DUFS client's
dead-back-end semantics (§IV-I) at the metadata layer.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..resilience import BreakerBoard, retry_call
from ..sim.node import Outcome
from ..svc import NULL_BUS, TraceBus
from ..zk.client import ZKClient
from ..zk.errors import (
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    StaleShardMapError,
    ZKError,
)
from ..zk.protocol import ResolveResult, WriteRequest
from .base import MetadataService
from .shardmap import ShardMap, ShardMapRegistry, parent_dir

#: System area holding cross-shard intent records (hidden from readdir).
INTENT_ROOT = "/.dufs-intent"
INTENT_NAME = INTENT_ROOT[1:]

#: Placeholder payload for anchor directories (matches
#: :class:`repro.core.metadata.DirPayload` 0o755 encoding — the mds layer
#: shares the codec's first byte as its type tag but must not import
#: repro.core, which imports this package).
PLACEHOLDER_DIR_DATA = b"D:755:0:0"

_mds_seq = itertools.count()


def default_is_dir(data: bytes) -> bool:
    """Payload classifier: is this znode data a directory record?"""
    return data.startswith(b"D:")


# -- intent records ----------------------------------------------------------
Step = Tuple  # ("ensure", path, data) | ("absent", path)


def encode_intent(steps: Sequence[Step]) -> bytes:
    out = []
    for step in steps:
        if step[0] == "ensure":
            out.append(["ensure", step[1], step[2].hex()])
        else:
            out.append(["absent", step[1]])
    return json.dumps(out, separators=(",", ":")).encode()


def decode_intent(data: bytes) -> List[Step]:
    steps: List[Step] = []
    for rec in json.loads(data.decode()):
        if rec[0] == "ensure":
            steps.append(("ensure", rec[1], bytes.fromhex(rec[2])))
        else:
            steps.append(("absent", rec[1]))
    return steps


def ordered_steps(steps: Sequence[Step]) -> List[Step]:
    """Apply order: ensures parents-first, then absents children-first."""
    ensures = sorted((s for s in steps if s[0] == "ensure"),
                     key=lambda s: s[1].count("/"))
    absents = sorted((s for s in steps if s[0] == "absent"),
                     key=lambda s: -s[1].count("/"))
    return ensures + absents


def apply_intent_to_view(view: Dict[str, bytes],
                         steps: Sequence[Step]) -> int:
    """Roll an intent forward on an offline namespace view (the auditor's
    merged ``{path: data}`` dict). Idempotent; returns changes made."""
    changed = 0
    for step in ordered_steps(steps):
        if step[0] == "ensure":
            if view.get(step[1]) != step[2]:
                view[step[1]] = step[2]
                changed += 1
        else:
            if view.pop(step[1], None) is not None:
                changed += 1
    return changed


def make_route_guard(registry) -> Callable:
    """Build the per-server hook enforcing the epoch protocol.

    Installed on every ZK server of an elastic deployment
    (``server.route_guard``). For requests stamped with a shard-map epoch
    (``map_epoch >= 0``; the migrator's own traffic is unstamped and
    passes):

    - **writes** under a subtree whose migration is mid-copy bounce with
      the migration attached — the client parks on its ``done`` event and
      lands on the new shard after cutover (the brief write redirect);
    - any request whose stamped epoch would route its path differently
      under the current map bounces with the new map attached — the
      client adopts it and re-routes within its retry budget. Requests
      whose routing is *unchanged* by newer epochs are served: benign
      staleness never costs a round-trip.
    """
    def guard(req) -> None:
        epoch = req.map_epoch
        if epoch < 0:
            return
        if isinstance(req, WriteRequest):
            paths = [p for p in (req.path, *(o.path for o in req.ops)) if p]
            for p in paths:
                mig = registry.blocking_migration(p)
                if mig is not None:
                    raise StaleShardMapError(
                        p, msg=f"{p} is migrating to shard {mig.dst}",
                        shard_map=registry.current, migration=mig)
        else:
            paths = [req.path]
        if epoch != registry.epoch:
            for p in paths:
                if registry.routing_changed(epoch, p):
                    raise StaleShardMapError(
                        p, msg=f"shard map epoch {epoch} superseded "
                               f"(current {registry.epoch})",
                        shard_map=registry.current)
    return guard


class ShardedMDS(MetadataService):
    """Namespace service routed across N independent ensembles."""

    def __init__(
        self,
        clients: Sequence[ZKClient],
        shard_map: Optional[ShardMap] = None,
        name: Optional[str] = None,
        bus: Optional[TraceBus] = None,
        registry: Optional[ShardMapRegistry] = None,
    ):
        super().__init__()
        if not clients:
            raise ValueError("need at least one shard client")
        self.clients = list(clients)
        self.n_shards = len(self.clients)
        self.registry = registry
        if registry is not None:
            self.map = registry.current
        else:
            self.map = shard_map or ShardMap(self.n_shards)
        if self.map.n_shards != self.n_shards:
            raise ValueError("shard map size != number of shard clients")
        self.name = name or f"mds{next(_mds_seq)}"
        self.bus = bus if bus is not None else NULL_BUS
        self._last_retries = 0
        self._intent_seq = 0
        self._intent_root_ready: set = set()
        self.stats = {"cross_shard_ops": 0, "intents_written": 0,
                      "intents_retired": 0, "anchors_created": 0,
                      "resolves": 0, "resolve_hops": 0,
                      "stale_map_retries": 0}
        #: Fired with the list of moved subtree roots when this service
        #: adopts a new shard-map epoch (mdcache invalidation hook).
        self.map_change_listeners: List[Callable[[List[str]], None]] = []
        # Elastic plane only: per-directory op counters feeding the
        # autoscaler's subtree selection. Gated so the static plane pays
        # one boolean test per op and allocates nothing.
        self._track_load = registry is not None
        self.dir_ops: Dict[str, int] = {}
        self._stale_retry_limit = 4
        for k, zkc in enumerate(self.clients):
            zkc.shard = k
            if registry is not None:
                zkc.map_epoch = self.map.epoch
            zkc.watch_loss_listeners.append(
                lambda reason, k=k: self._notify_watch_loss(reason, k))

    # -- shard topology ----------------------------------------------------
    def shard_for(self, path: str) -> int:
        return self.map.home_shard(path)

    def listing_shard_for(self, path: str) -> int:
        return self.map.child_shard(path)

    def client_for_shard(self, shard: int) -> ZKClient:
        return self.clients[shard]

    # -- plumbing ----------------------------------------------------------
    def _call(self, shard: int, method: str, *args,
              reroute: Optional[Callable[[ShardMap], int]] = None,
              **kwargs) -> Generator:
        """One sub-operation on a shard client, retries accumulated into
        this service's ``last_retries`` (callers disambiguate retried
        non-idempotent writes exactly as with a raw ZKClient).

        ``reroute(map) -> shard`` recomputes the target after a
        ``StaleShardMapError``: the server bounced us because our routing
        epoch is superseded (or the path is under a mid-copy migration),
        so we adopt the new map, wait out any copy-phase freeze, and
        re-issue against the freshly computed shard. The bounced attempt
        never reached the namespace, so the op is still counted once.
        """
        attempts = 0
        while True:
            zkc = self.clients[shard]
            try:
                result = yield from getattr(zkc, method)(*args, **kwargs)
                return result
            except StaleShardMapError as exc:
                attempts += 1
                if reroute is None or attempts > self._stale_retry_limit:
                    raise
                yield from self._on_stale_map(exc)
                shard = reroute(self.map)
            finally:
                self._last_retries += zkc.last_retries

    def _at_home(self, method: str, path: str, *args, **kwargs) -> Generator:
        """One sub-operation on ``path`` at its home shard."""
        return self._call(self.map.home_shard(path), method, path, *args,
                          reroute=lambda m: m.home_shard(path), **kwargs)

    def _on_stale_map(self, exc: StaleShardMapError) -> Generator:
        """React to a route-guard bounce: wait for an in-flight migration
        to cut over (writes to a moving subtree are briefly frozen), then
        adopt the current map epoch."""
        self.stats["stale_map_retries"] += 1
        mig = exc.migration
        if mig is not None and not mig.done.triggered:
            yield mig.done
        new_map = self.registry.current if self.registry is not None \
            else exc.shard_map
        if new_map is not None:
            self._adopt_map(new_map)

    def _adopt_map(self, new_map: ShardMap) -> None:
        """Switch this service (and its shard clients' request stamps) to
        a newer epoch; notify cache layers of the moved subtrees."""
        if new_map.epoch <= self.map.epoch:
            return
        old = self.map
        self.map = new_map
        for zkc in self.clients:
            if zkc.map_epoch is not None or self.registry is not None:
                zkc.map_epoch = new_map.epoch
        roots = old.diff(new_map)
        if roots:
            for fn in self.map_change_listeners:
                fn(roots)

    def _note_op(self, path: str, listing: bool = False) -> None:
        """Elastic-gated per-directory load accounting (autoscaler input:
        which directory's entry set is hot). Listings charge the directory
        itself; entry ops charge the parent — both route to the same
        shard, the directory's ``dir_shard``."""
        if not self._track_load:
            return
        d = path if listing or path == "/" else parent_dir(path)
        self.dir_ops[d] = self.dir_ops.get(d, 0) + 1

    @property
    def last_retries(self) -> int:
        return self._last_retries

    # -- reads -------------------------------------------------------------
    def get(self, path: str, watch=None) -> Generator:
        self._last_retries = 0
        self._note_op(path)
        return (yield from self._at_home("get", path, watch=watch))

    def exists(self, path: str, watch=None) -> Generator:
        self._last_retries = 0
        self._note_op(path)
        return (yield from self._at_home("exists", path, watch=watch))

    def get_children(self, path: str, watch=None) -> Generator:
        self._last_retries = 0
        self._note_op(path, listing=True)
        child = self.map.child_shard(path)
        home = self.map.home_shard(path)
        try:
            names = yield from self._call(
                child, "get_children", path, watch=watch,
                reroute=lambda m: m.child_shard(path))
        except NoNodeError:
            if child == home:
                raise
            # The child-host copy may be missing (crash residue, or a
            # directory that never hosted an entry); the home copy is
            # authoritative for existence.
            stat = yield from self._call(home, "exists", path,
                                         reroute=lambda m: m.home_shard(path))
            if stat is None:
                raise
            return []
        if path == "/":
            names = [n for n in names if n != INTENT_NAME]
        return names

    def resolve(self, path: str, watch=None) -> Generator:
        """Server-side whole-path lookup, bounded at **two hops**.

        Hop 1 goes to the *home shard* of ``path`` — the shard that
        child-hosts its parent directory, so by construction it holds the
        target's entry AND (real or placeholder) anchors for the whole
        ancestor chain. An existing path therefore always resolves
        ``"ok"`` in one hop; a subtree-pinned path is additionally
        guaranteed shard-local. On a ``"miss"`` whose parent's home copy
        lives on another shard, one second hop resolves the parent at its
        authoritative shard so the miss classification (ENOENT vs
        ENOTDIR) matches the namespace's ground truth — the nearest
        ancestor reported for a chain broken *above* the parent is the
        bounded-hop approximation noted in MODEL.md.
        """
        self._last_retries = 0
        self._note_op(path)
        self.stats["resolves"] += 1
        self.stats["resolve_hops"] += 1
        home = self.map.home_shard(path)
        res = yield from self._call(home, "resolve", path, watch=watch,
                                    reroute=lambda m: m.home_shard(path))
        if res.status == "ok" or path == "/":
            return res
        parent = parent_dir(path)
        parent_home = self.map.home_shard(parent)
        if parent == "/" or parent_home == home:
            # The home shard is authoritative for the parent too (or the
            # parent is the root): the hop-1 answer stands.
            return res
        self.stats["resolve_hops"] += 1
        self.bus.mark("mds", self.name, "resolve_hop2",
                      self.clients[0].sim.now)
        pres = yield from self._call(parent_home, "resolve", parent,
                                     reroute=lambda m: m.home_shard(parent))
        if pres.status == "ok":
            return ResolveResult("miss", path, ancestor=parent,
                                 ancestor_data=pres.data)
        return ResolveResult("miss", path, ancestor=pres.ancestor,
                             ancestor_data=pres.ancestor_data)

    # -- writes ------------------------------------------------------------
    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False) -> Generator:
        self._last_retries = 0
        self._note_op(path)
        return (yield from self._with_anchor(path, data, self._create_entry(
            path, data, ephemeral=ephemeral, sequential=sequential)))

    def _with_anchor(self, path: str, data: bytes,
                     home_copy: Generator) -> Generator:
        """Drive ``home_copy`` (it writes ``path``'s home copy and returns
        the path iff it *created* it) and, for a two-copy directory, write
        the child-host copy beside it from the same simulated instant;
        returns once both have committed (C1)."""
        if not default_is_dir(data) \
                or self.map.child_shard(path) == self.map.home_shard(path):
            return (yield from home_copy)
        anchor, home = yield from self._both(
            self._ensure_child_anchor(path, data), home_copy)
        if anchor.error is not None:
            if home.error is None and home.value is not None:
                # C2: never a stat-able directory that cannot take entries
                # (the reverse is an invisible anchor a retry tolerates).
                try:
                    yield from self._at_home("delete", path)
                except ZKError:
                    pass
            raise anchor.error
        return home.result()

    def _both(self, side: Generator, main: Generator) -> Generator:
        """Run ``side`` as its own (shielded) process beside ``main`` and
        wait for both (a straggler would add its retries to a later op's
        count). Returns both outcomes, ``side``'s first."""
        proc = self.clients[0].node.shielded(side, f"{self.name}.side")
        try:
            done = Outcome((yield from main))
        except ZKError as exc:
            done = Outcome(error=exc)
        return (yield proc), done

    def _create_entry(self, path: str, data: bytes, **flags) -> Generator:
        """The home-shard create of ``path``. That shard holds the
        parent's *child-host* copy, which a mkdir or rmdir in flight
        writes at another instant than the home copy, so (C3) a NoNode
        under a two-copy parent that exists at its home is re-issued
        under the shard client's retry policy (no breaker: an answered
        NoNode is no server fault). Nothing is written for the parent: a
        re-created anchor landing between a racing rmdir's two deletes
        would orphan the entry under a removed directory."""
        try:
            return (yield from self._at_home("create", path, data, **flags))
        except NoNodeError:
            parent = parent_dir(path)
            if self.map.home_shard(parent) == self.map.child_shard(parent):
                raise

        def attempt(_):
            if (yield from self._at_home("exists", parent)) is None:
                return None
            return (yield from self._at_home("create", path, data, **flags))
        zkc = self.clients[self.map.home_shard(path)]
        created = yield from retry_call(
            zkc.sim, zkc.retry, BreakerBoard(zkc.sim, enabled=False),
            zkc.retry.begin(zkc.sim.now), pick=lambda: parent,
            attempt=attempt, retry_on=NoNodeError,
            gave_up=lambda _, exc: exc)
        if created is None:
            raise NoNodeError(path)
        return created

    def set_data(self, path: str, data: bytes, version: int = -1) -> Generator:
        self._last_retries = 0
        self._note_op(path)
        return (yield from self._at_home("set_data", path, data,
                                         version=version))

    def delete(self, path: str, version: int = -1,
               is_dir: Optional[bool] = None) -> Generator:
        self._last_retries = 0
        self._note_op(path)
        home = self.map.home_shard(path)
        if is_dir is None and self.n_shards > 1:
            # No routing hint: one read classifies (only generic callers).
            try:
                data, _ = yield from self._call(
                    home, "get", path, reroute=lambda m: m.home_shard(path))
                is_dir = default_is_dir(data)
            except NoNodeError:
                is_dir = False
            home = self.map.home_shard(path)  # the get may have adopted
        if is_dir and self.map.child_shard(path) != home:
            return (yield from self._delete_copies(path, version))
        result = yield from self._call(home, "delete", path, version=version,
                                       reroute=lambda m: m.home_shard(path))
        return result

    def _delete_copies(self, path: str, version: int = -1) -> Generator:
        """Delete both copies of a two-copy directory. Child-host copy
        first: it holds the real entries, so this is where POSIX
        emptiness (NotEmpty) is decided — before the visible copy goes,
        which is why the two deletes stay serial."""
        try:
            yield from self._call(self.map.child_shard(path), "delete", path,
                                  reroute=lambda m: m.child_shard(path))
        except NoNodeError:
            pass
        try:
            return (yield from self._at_home("delete", path, version=version))
        except NotEmptyError:
            # On any shard but its child shard a directory's children are
            # routing artefacts of descendants, and no real entry is left
            # (the child-host delete went through): dead residue.
            yield from self._reclaim(self.map.home_shard(path), path)
        return (yield from self._at_home("delete", path, version=version))

    def _reclaim(self, shard: int, path: str) -> Generator:
        """Delete everything below ``path`` on ``shard``, children first
        (a mkdir that needs a reclaimed placeholder again rebuilds it: its
        probe answers NoNode)."""
        for name in (yield from self._call(shard, "get_children", path)):
            yield from self._reclaim(shard, f"{path}/{name}")
            try:
                yield from self._call(shard, "delete", f"{path}/{name}")
            except NoNodeError:
                pass

    def sync(self, path: str = "/") -> Generator:
        self._last_retries = 0
        result = yield from self._call(self.map.home_shard(path), "sync",
                                       path)
        return result

    # -- directory anchors ---------------------------------------------------
    def _ensure_child_anchor(self, path: str, data: bytes) -> Generator:
        """Create the child-host copy of directory ``path``, building
        placeholder ancestors on demand."""
        rr = lambda m: m.child_shard(path)  # noqa: E731 - route recompute
        try:
            return (yield from self._call(self.map.child_shard(path),
                                          "create", path, data, reroute=rr))
        except NodeExistsError:
            return
        except NoNodeError:
            pass
        # Cold path: the parent chain is absent on this shard. Build it
        # while the parent's home shard (authoritative: a racing rmdir
        # still surfaces as ENOENT) says whether the parent exists, then
        # probe again — a chain can vanish only below a removed parent.
        parent = parent_dir(path)
        stat, built = yield from self._both(
            self._at_home("exists", parent),
            self._ensure_dir_chain(self.map.child_shard(path), parent,
                                   reroute=rr))
        exists = stat.result()
        built.result()
        if exists is None:
            raise NoNodeError(path)
        yield from self._ensure_child_anchor(path, data)

    def _ensure_dir_chain(self, shard: int, dirpath: str,
                          reroute=None) -> Generator:
        """mkdir -p of placeholder anchors for ``dirpath`` — known missing
        on ``shard`` — deepest-first: the upper chain is almost always
        there, so climb only on NoNode, usually one create, not ``depth``.
        Missing where its home copy would be, a directory does not exist:
        a placeholder there would conjure it up."""
        if dirpath == "/":
            return
        if shard == self.map.home_shard(dirpath):
            raise NoNodeError(dirpath)
        try:
            yield from self._call(shard, "create", dirpath,
                                  PLACEHOLDER_DIR_DATA, reroute=reroute)
            self.stats["anchors_created"] += 1
        except NodeExistsError:
            pass
        except NoNodeError:
            yield from self._ensure_dir_chain(shard, parent_dir(dirpath),
                                              reroute)
            yield from self._ensure_dir_chain(shard, dirpath, reroute)

    # -- multi: atomic when shard-local, intent-journaled across shards ------
    def multi(self, ops: Sequence[WriteRequest]) -> Generator:
        self._last_retries = 0
        ops = list(ops)
        shards = {self.map.home_shard(op.path) for op in ops}
        needs_anchor = any(
            op.op == "create" and default_is_dir(op.data)
            and self.map.child_shard(op.path) != self.map.home_shard(op.path)
            for op in ops)
        if len(shards) == 1 and not needs_anchor:
            # Shard-local: one atomic ZooKeeper multi, exactly as today.
            result = yield from self._call(shards.pop(), "multi", ops)
            return result
        result = yield from self._cross_shard_multi(ops)
        return result

    def _cross_shard_multi(self, ops: List[WriteRequest]) -> Generator:
        self.stats["cross_shard_ops"] += 1
        steps = self._normalize(ops)
        yield from self._precheck(ops)
        source = self._source_shard(ops)
        intent_path = yield from self._write_intent(source, steps)
        try:
            yield from self._apply_steps(steps)
        except ZKError:
            # Leave the intent record: the namespace auditor rolls the
            # operation forward offline (apply_intent_to_view) — a crash
            # mid-operation can strand both names, never neither.
            raise
        try:
            yield from self._call(source, "delete", intent_path)
            self.stats["intents_retired"] += 1
        except ZKError:
            pass  # benign: steps are idempotent under reconciliation
        return [None] * len(ops)

    def _normalize(self, ops: Sequence[WriteRequest]) -> List[Step]:
        """Collapse an op list into idempotent final-state steps (a
        delete-then-create of one path becomes a single ensure, so a
        reconciler replaying the record at any point converges)."""
        final: Dict[str, Step] = {}
        for op in ops:
            if op.op in ("create", "set"):
                final[op.path] = ("ensure", op.path, op.data)
            elif op.op == "delete":
                final[op.path] = ("absent", op.path)
            # "check" ops carry no state change.
        return list(final.values())

    def _precheck(self, ops: Sequence[WriteRequest]) -> Generator:
        """Preserve the atomic multi's NotEmpty guard: a delete that a
        later create overwrites (rename onto an existing target) must
        fail if the target directory currently has entries."""
        deleted = set()
        for op in ops:
            if op.op == "delete":
                deleted.add(op.path)
            elif op.op == "create" and op.path in deleted:
                try:
                    names = yield from self._call(
                        self.map.child_shard(op.path), "get_children",
                        op.path,
                        reroute=lambda m, p=op.path: m.child_shard(p))
                except NoNodeError:
                    continue  # no child-host copy: nothing underneath
                if names:
                    raise NotEmptyError(op.path)

    def _source_shard(self, ops: Sequence[WriteRequest]) -> int:
        """The shard journaling the intent: where the operation's source
        entry lives (the first deleted path), per the protocol."""
        for op in ops:
            if op.op == "delete":
                return self.map.home_shard(op.path)
        return self.map.home_shard(ops[0].path)

    def _write_intent(self, source: int, steps: Sequence[Step]) -> Generator:
        if source not in self._intent_root_ready:
            try:
                yield from self._call(source, "create", INTENT_ROOT,
                                      PLACEHOLDER_DIR_DATA)
            except NodeExistsError:
                pass
            self._intent_root_ready.add(source)
        self._intent_seq += 1
        path = f"{INTENT_ROOT}/{self.name}-{self._intent_seq}"
        yield from self._call(source, "create", path, encode_intent(steps),
                              reroute=lambda m: m.home_shard(path))
        self.stats["intents_written"] += 1
        return path

    def _apply_steps(self, steps: Sequence[Step]) -> Generator:
        for step in ordered_steps(steps):
            if step[0] == "ensure":
                yield from self._apply_ensure(step[1], step[2])
            else:
                yield from self._apply_absent(step[1])

    def _apply_ensure(self, path: str, data: bytes) -> Generator:
        def home_copy():
            try:
                return (yield from self._create_entry(path, data))
            except NodeExistsError:
                yield from self._at_home("set_data", path, data)
        yield from self._with_anchor(path, data, home_copy())

    def _apply_absent(self, path: str) -> Generator:
        try:
            if self.map.child_shard(path) != self.map.home_shard(path):
                # Covers the directory child-host copy; for files the
                # child shard simply holds nothing (tolerated).
                yield from self._delete_copies(path)
            else:
                yield from self._at_home("delete", path)
        except NoNodeError:
            pass
