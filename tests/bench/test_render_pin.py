"""Pin the six bench tables: each committed ``benchmarks/BENCH_*.json``
rendered through the CI gate's own suite table must print exactly this.

Recorded on the tree *before* the suite-registry refactor and not edited
by it: the renderers are reached through ``scripts/check_regression.py``'s
``SUITES[name].render`` — the one spelling that exists on both sides.
"""

import json
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SUITES = runpy.run_path(str(ROOT / "scripts" / "check_regression.py"))["SUITES"]

# The async and shard file_create rows follow their baselines, re-recorded
# when each DUFS client began making its hash-directory chain at mount; the
# elastic rows, when the autoscaler's shard signal began counting writes only,
# and again when it began reading each shard's replica log growth per tick;
# the async file_remove row and drain window, when a write-behind unlink began
# running its physical unlink in the drain; the async file_create row, when
# both arms began running the default one-pipeline ZooKeeper leader, and
# again with the drain window when a write-behind create began making its
# physical file in the drain. The sync arm's async file_remove row, the
# shard file_remove row and the elastic rows moved when a synchronous unlink
# began returning before its back-end unlink, which runs in a process of its
# own: faster removes shifted the autoscaler's decisions (elastic
# file_create 1.44x -> 1.34x, floor 1.3x). The mdcache, resolve and shard
# stat rows and the elastic rows moved when a file stat with a FID hint
# began starting its back-end stat beside its znode read: the uncached
# arms' stats got faster (mdcache ls_l 7.13x -> 6.75x, elastic file_stat
# 1.64x -> 1.56x, floor 1.3x), and the autoscaler's decisions shifted.
# The mdcache "on" column is unchanged: a cached mount keeps no hints.
# The async sync-arm, shard and elastic file_create rows moved when a
# synchronous file create began taking a spare, its physical file made
# ahead of it: shard 4-shard file_create 1.63x -> 1.59x (floor 1.5x; the
# local back-end's create costs microseconds, so the p50 barely moves and
# the phase's slowest process, which sets its rate, finished later),
# elastic file_create 1.37x -> 1.42x and file_stat 1.56x -> 1.61x (the
# autoscaler's decisions shifted), async sync arm 1,050 -> 1,052 ops/s.
# The async sync-arm rows, the shard create and remove rows and the
# elastic rows moved when a follower began answering a forwarded write at
# the instant it applies it, not at the next log_delay tick: async sync
# arm file_create 1,052 -> 1,342 ops/s (speedup 7.11x -> 5.57x), shard
# 4-shard file_create 1.59x -> 1.72x (floor 1.5x) and dir_create 1.09x ->
# 1.10x, elastic file_create 1.42x -> 1.36x (floor 1.3x; every arm's
# creates got faster, the static ones most, and the autoscaler's
# decisions shifted). The mdcache, resolve and resilience tables did not
# move. The mdcache "off" column and the resolve rows moved when a stat
# stopped recording a FID hint, so a hint comes only from this mount's
# create and a file's second stat is unhinted: mdcache ls_l 6,483 ->
# 6,137 ops/s uncached (6.75x -> 7.13x), stat_hot 2.30x -> 2.39x;
# resolve deep_stat 5.06x -> 4.95x (both arms slower, the walk less).
# The shard dir_create row moved when a mkdir whose anchor chain is cold
# began writing the missing placeholders and the anchor in one multi, not
# one create each: 2 shards 2,912 -> 3,218 ops/s, 4 shards 2,989 -> 3,482
# (1.10x -> 1.28x, floor 1.0x). No other row moved.
GOLDEN = {
    "async": """\
async-write ablation (scale=quick):
  phase          sync ops/s  async ops/s  speedup
  file_create         1,342        7,483    5.57x
  file_remove           877        4,187    4.78x
  async: 241 acked / 241 committed / 0 rejected (0 stalls), drain window 16.0 ops in flight; create latency 1,480us sync -> 128us async ack""",
    "elastic": """\
elastic plane (scale=quick, 8 ZK servers as 4 shards, pin budget 8):
  arm           file_create      file_stat
  elastic            16,149         84,156
  hash                8,503         36,775
  tuned-A            11,774         52,147
  tuned-B            11,914         52,602
  gate: file_create elastic/best-static = 1.36x (floor 1.3x)
  gate: file_stat elastic/best-static = 1.60x (floor 1.3x)
  elastic: 187 ticks, epoch 18, 12 splits / 6 merges, 1717 entries copied""",
    "mdcache": """\
cache ablation (scale=quick):
  phase           off ops/s     on ops/s  speedup
  stat_hot            6,976       16,700    2.39x
  stat_shared        13,880       32,996    2.38x
  ls_l                6,137       43,732    7.13x
  cache-on: hit-rate 76.7% (hits=1952 misses=400 coalesced=192 listings=16/32), zk reads 416 vs 2576 uncached""",
    "resilience": """\
resilience overload campaign (scale=quick, capacity 500 reads/s, 4 open-loop clients x 4s):
   load  arm  offered/s  goodput/s    ok%  p95(ms)  served  denied  trips
   0.5x  off        250        250 100.0%      2.1    1000       0      0
   0.5x   on        250        250 100.0%      2.1    1000       0      0
     2x  off      1,000         20   1.9%     76.1    2749       0      0
     2x   on      1,000        200  20.0%     76.1    1714    3202     40
  gate: goodput at 2.0x load, on/off = 10.23x (floor 1.5x)""",
    "resolve": """\
resolve ablation (scale=quick depth=8):
  phase          walk ops/s   thin ops/s  speedup
  flat_stat           6,362        6,939    1.09x
  epoch_read          6,939        6,939    1.00x
  deep_stat           1,114        5,516    4.95x
  thin: 1.00 RPCs/lookup (704 reads / 704 lookups) vs walk 2.12; server dentry hits 1745/2048 over 704 resolves""",
    "shard": """\
shard scaling (scale=quick, 8 ZK servers total, 8 procs x 20 items):
  phase            1 shard(s)     2 shard(s)     4 shard(s)  speedup
  dir_create            2,725          3,218          3,482    1.28x
  file_create           2,397          3,164          4,130    1.72x
  file_stat            13,861         13,861         11,984    0.86x
  file_remove           2,016          2,729          2,902    1.44x
  gate: file_create at 4 shards = 1.72x (floor 1.5x)
  gate: dir_create at 4 shards = 1.28x (floor 1.0x)""",
}


def test_the_gate_table_lists_exactly_the_pinned_suites():
    assert sorted(SUITES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_committed_baseline_renders_byte_identically(name):
    doc = json.loads((ROOT / "benchmarks" / f"BENCH_{name}.json").read_text())
    assert SUITES[name].render(doc) == GOLDEN[name]
