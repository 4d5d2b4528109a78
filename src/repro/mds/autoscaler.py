"""Load-driven shard-map control loop (split hot shards, merge cold).

The autoscaler closes the loop the paper leaves open: a decentralized
metadata plane only helps if load actually spreads across the ensembles,
and a static hash map cannot fix a skewed namespace (λFS's core
observation). Every ``interval`` simulated seconds it:

1. samples the **windowed per-shard op rates** from the TraceBus (the
   satellite signal; falls back to per-directory op-count deltas summed
   by the current map when no bus is wired),
2. classifies a shard *hot* when its rate exceeds ``HOT_FACTOR ×`` the
   mean and a pinned subtree *quiet* when its own rate is under
   ``merge_min_ops``, requiring ``hysteresis`` consecutive such ticks
   before acting so an oscillating workload never flaps the map,
3. proposes **splits** — pin the hottest directories of a hot shard to
   the coldest shards — and **merges** — unpin subtrees that stayed
   quiet — subject to the server-budget constraint: the shard pool is
   fixed (equal hardware), so the only resource spent is the pin table,
   capped at ``max_pins``,
4. executes the moves through the :class:`~repro.mds.migrate.Migrator`
   (live copy-then-cutover), recording every decision in
   :attr:`Autoscaler.decisions` for ``repro shardmap`` to dump.

``_decide`` is deliberately a pure-ish function of the sampled signals
(it touches only the hysteresis streaks and cooldown clocks), so the
no-flap property is unit-testable without a simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..models.params import ElasticParams
from ..sim.core import Interrupt
from ..zk.errors import ZKError
from .migrate import Migrator
from .sharded import INTENT_ROOT, ShardedMDS
from .shardmap import ShardMapRegistry

__all__ = ["Autoscaler"]

#: A shard is hot while its windowed rate exceeds this multiple of the mean.
HOT_FACTOR = 1.6

#: (time, action, root, src, dst, note) — the decision journal.
Decision = Tuple[float, str, str, int, int, str]


class Autoscaler:
    """One instance per elastic deployment, spawned as a node process."""

    def __init__(self, registry: ShardMapRegistry, migrator: Migrator,
                 services: Sequence[ShardedMDS],
                 params: Optional[ElasticParams] = None,
                 bus=None):
        self.registry = registry
        self.migrator = migrator
        self.services = list(services)
        self.params = params or ElasticParams(enabled=True)
        self.bus = bus
        self.sim = migrator.sim
        self.decisions: List[Decision] = []
        self._dir_seen: Dict[str, int] = {}   # last-tick per-dir totals
        self._hot_streak: Dict[int, int] = {}
        self._cold_streak: Dict[str, int] = {}
        self._last_move: Dict[str, float] = {}
        self._last_shard_act: Dict[int, float] = {}
        self._last_tick_at: Optional[float] = None
        self.ticks = 0

    # -- the process ---------------------------------------------------------
    def run(self):
        """Control loop; survives until its node crashes or the sim ends."""
        p = self.params
        try:
            while True:
                yield self.sim.timeout(p.interval)
                yield from self.tick()
        except Interrupt:
            return

    def tick(self):
        """One control period: sample, decide, execute.

        Every signal is normalized to **ops/sec** before deciding — the
        per-directory deltas by the actual time since the previous tick
        (migrations stretch ticks past ``interval``), the per-shard loads
        by the TraceBus window — so thresholds and the balance test
        compare like with like.
        """
        self.ticks += 1
        now = self.sim.now
        dt = (now - self._last_tick_at) if self._last_tick_at is not None \
            else self.params.interval
        self._last_tick_at = now
        dir_delta = self._sample_dirs()
        dir_rate = {d: v / max(dt, 1e-9) for d, v in dir_delta.items()}
        shard_load = self._shard_load(dir_rate)
        actions = self._decide(shard_load, dir_rate, self.sim.now)
        if not actions:
            return
        # The batch executes *concurrently*: its roots are disjoint by
        # construction and each migration installs its own pin delta, so
        # the whole rebalance costs one migration's wall-clock, not the
        # sum — the freeze windows overlap instead of queueing.
        node = self.migrator.clients[0].node

        def execute(action, root, dst):
            src = self.registry.current.child_shard(root)
            try:
                if action == "split":
                    ok = yield from self.migrator.split(root, dst)
                else:
                    ok = yield from self.migrator.merge(root)
            except (ZKError, ValueError) as exc:
                self._log(action, root, src, dst, f"failed: {exc}")
                return
            self._last_move[root] = self.sim.now
            self._log(action, root, src, dst, "ok" if ok else "aborted")

        outcomes = yield from node.gather(
            (execute(a, r, d) for a, r, d in actions), "autoscale.move")
        for outcome in outcomes:
            outcome.result()

    # -- signals -------------------------------------------------------------
    def _sample_dirs(self) -> Dict[str, int]:
        """Per-directory op-count deltas since the previous tick, summed
        over every client node's service instance."""
        totals: Dict[str, int] = {}
        for svc in self.services:
            for d, n in svc.dir_ops.items():
                totals[d] = totals.get(d, 0) + n
        delta = {}
        for d, n in totals.items():
            prev = self._dir_seen.get(d, 0)
            if n > prev:
                delta[d] = n - prev
        self._dir_seen = totals
        return delta

    def _shard_load(self, dir_rate: Dict[str, float]) -> Dict[int, float]:
        """Windowed per-shard op rates (ops/sec) from the TraceBus when
        wired, else the per-directory rate aggregate under the current
        map."""
        if self.bus is not None:
            rates = self.bus.shard_window_rates(now=self.sim.now,
                                                deployment="zk")
            if rates:
                return rates
        cur = self.registry.current
        load: Dict[int, float] = {}
        for d, n in dir_rate.items():
            k = cur.dir_shard(d)
            load[k] = load.get(k, 0.0) + n
        return load

    # -- policy --------------------------------------------------------------
    def _decide(self, shard_load: Dict[int, float],
                dir_rate: Dict[str, float],
                now: float) -> List[Tuple[str, str, int]]:
        """-> [(action, root, dst_shard)]. Inputs are ops/sec (per shard
        and per directory). Pure apart from the hysteresis streaks and
        cooldown clocks, so tests drive it directly."""
        p = self.params
        cur = self.registry.current
        n = cur.n_shards
        total = sum(shard_load.values())
        if total < p.min_window_ops:
            # Quiet window: no signal worth acting on; streaks decay so a
            # lull resets the hysteresis clock.
            self._hot_streak.clear()
            self._cold_streak.clear()
            return []
        mean = total / n
        loads = {k: shard_load.get(k, 0.0) for k in range(n)}

        # Calibrate client-side per-directory rates into *server-op*
        # units: the bus counts server-visible requests (resolution
        # hops, anchor writes), a per-shard multiple of the client op
        # rate. Without this the balance test compares apples (server
        # load) to oranges (client rate) and never stops a move run.
        client_by_shard: Dict[int, float] = {}
        for d, v in dir_rate.items():
            j = cur.dir_shard(d)
            client_by_shard[j] = client_by_shard.get(j, 0.0) + v
        scale = {k: (loads[k] / client_by_shard[k]
                     if client_by_shard.get(k, 0.0) > 0 else 1.0)
                 for k in range(n)}

        # Hysteresis bookkeeping: a streak survives only while the
        # condition holds on *consecutive* ticks.
        for k in range(n):
            if loads[k] > HOT_FACTOR * mean:
                self._hot_streak[k] = self._hot_streak.get(k, 0) + 1
            else:
                self._hot_streak.pop(k, None)

        actions: List[Tuple[str, str, int]] = []
        pins = dict(cur.subtrees)

        # Merges first: an idle pin is wasted budget, and freeing it may
        # fund this very tick's split.
        for root in sorted(pins):
            sub_load = sum(v for d, v in dir_rate.items()
                           if d == root or d.startswith(root + "/"))
            if sub_load < p.merge_min_ops:
                self._cold_streak[root] = self._cold_streak.get(root, 0) + 1
            else:
                self._cold_streak.pop(root, None)
                continue
            if self._cold_streak[root] < p.hysteresis:
                continue
            if now - self._last_move.get(root, -1e18) < p.cooldown:
                continue
            actions.append(("merge", root, -1))
            del pins[root]

        # Splits: hottest directories off shards that stayed hot.
        hot = sorted((k for k, s in self._hot_streak.items()
                      if s >= p.hysteresis),
                     key=lambda k: (-loads[k], k))
        budget = p.max_pins - len(pins)
        batch_cnt: Dict[int, int] = {}   # moves per destination this tick
        for k in hot:
            if budget <= 0 or len(actions) >= p.moves_per_tick:
                break
            # Act-then-listen: after splitting from this shard, wait for
            # the measurement window to flush the pre-move samples before
            # splitting from it again — acting on a stale window would
            # keep peeling directories off a shard that is already fixed.
            if now - self._last_shard_act.get(k, -1e18) \
                    < max(p.window, p.cooldown):
                continue
            before = len(actions)
            cands = sorted(
                ((d, v) for d, v in dir_rate.items()
                 if cur.dir_shard(d) == k and d != "/"
                 and not d.startswith(INTENT_ROOT)
                 and now - self._last_move.get(d, -1e18) >= p.cooldown),
                key=lambda item: (-item[1], item[0]))
            # The source keeps its proportional share of the movable
            # candidates — it remains one of the n shards serving them.
            moves_left = len(cands) - max(1, len(cands) // n)
            for d, dv in cands:
                if budget <= 0 or moves_left <= 0 \
                        or len(actions) >= p.moves_per_tick:
                    break
                if any(d == r or d.startswith(r + "/")
                       for _a, r, _t in actions):
                    continue
                # Destination: fewest moves received *this tick* first
                # (per-move load estimates are too noisy to let one batch
                # pile onto whichever shard measured lightest), then the
                # lightest predicted load.
                dst = min((j for j in range(n) if j != k),
                          key=lambda j: (batch_cnt.get(j, 0), loads[j], j))
                if pins.get(d) == dst:
                    continue
                dv_srv = dv * scale[k]
                # Move only while the pairwise max decreases: once the
                # destination-after would match or exceed the source's
                # *current* load, the move just relocates the hotspot
                # (the degenerate case — one dir IS the whole load —
                # stops here too, keeping the hottest directory home).
                if loads[dst] + dv_srv >= loads[k]:
                    break
                actions.append(("split", d, dst))
                pins[d] = dst
                loads[dst] += dv_srv
                loads[k] -= dv_srv
                batch_cnt[dst] = batch_cnt.get(dst, 0) + 1
                budget -= 1
                moves_left -= 1
            if len(actions) > before:
                # Acting resets the streak: re-evaluate on fresh windows.
                self._hot_streak.pop(k, None)
                self._last_shard_act[k] = now
        return actions

    # -- reporting -----------------------------------------------------------
    def _log(self, action: str, root: str, src: int, dst: int,
             note: str) -> None:
        self.decisions.append((self.sim.now, action, root, src, dst, note))

    def report(self) -> dict:
        """Machine-readable state dump for ``repro shardmap``."""
        cur = self.registry.current
        return {
            "epoch": cur.epoch,
            "pins": dict(cur.subtrees),
            "ticks": self.ticks,
            "decisions": [
                {"t": t, "action": a, "root": r, "src": s, "dst": d,
                 "note": note}
                for t, a, r, s, d, note in self.decisions],
            "migrator": dict(self.migrator.stats),
        }
