"""Pin the seven bench tables: each committed ``benchmarks/BENCH_*.json``
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

GOLDEN = {
    "async": """\
async-write ablation (scale=quick):
  phase          sync ops/s  async ops/s  speedup
  file_create         1,050        5,668    5.40x
  file_remove           756        3,299    4.36x
  async: 241 acked / 241 committed / 0 rejected (0 stalls), drain fill 7.5 ops/batch; create latency 1,608us sync -> 104us async ack""",
    "elastic": """\
elastic plane (scale=quick, 8 ZK servers as 4 shards, pin budget 8):
  arm           file_create      file_stat
  elastic            15,334         79,692
  hash                8,487         36,578
  tuned-A            11,620         50,974
  tuned-B            11,586         51,467
  gate: file_create elastic/best-static = 1.32x (floor 1.3x)
  gate: file_stat elastic/best-static = 1.55x (floor 1.3x)
  elastic: 195 ticks, epoch 18, 12 splits / 6 merges, 1553 entries copied""",
    "kernel": """\
kernel bench: scale=medium repeats=3 calibration=22.8 Mops/s

workload             events   wall(s)     events/s    norm ev/s
---------------------------------------------------------------
fanout               416065     0.942       441468       193849
resource             154080     0.199       773197       339511
spawn_interrupt      144048     0.320       450755       197927
timers               192128     0.260       739931       324904
---------------------------------------------------------------
total                906321     1.721       526636       231246

speedup vs pre-overhaul kernel: 1.63x (same workload: 6.37 norm wall-s pre-PR vs 3.92 now, floor 1.5x)""",
    "mdcache": """\
cache ablation (scale=quick):
  phase           off ops/s     on ops/s  speedup
  stat_hot            6,976       16,700    2.39x
  stat_shared        13,880       32,996    2.38x
  ls_l                6,137       43,732    7.13x
  cache-on: hit-rate 76.7% (hits=1952 misses=400 coalesced=192 listings=16/32), zk reads 416 vs 2576 uncached""",
    "resilience": """\
resilience overload campaign (scale=quick, capacity 500 reads/s, 4 open-loop clients x 4s):
   load  arm  offered/s  goodput/s    ok%  p95(ms)  served  expired  denied  trips
   0.5x  off        250        250 100.0%      2.1    1000        0       0      0
   0.5x   on        250        250 100.0%      2.1    1000        0       0      0
     2x  off      1,000         20   1.9%     76.1    2749        0       0      0
     2x   on      1,000        200  20.0%     76.1    1714        0    3202     40
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
  dir_create            2,582          2,616          2,815    1.09x
  file_create           2,250          3,204          3,595    1.60x
  file_stat            13,005         13,005         11,339    0.87x
  file_remove           2,022          2,465          2,622    1.30x
  gate: file_create at 4 shards = 1.60x (floor 1.5x)
  gate: dir_create at 4 shards = 1.09x (floor 1.0x)""",
}


def test_the_gate_table_lists_exactly_the_pinned_suites():
    assert sorted(SUITES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_committed_baseline_renders_byte_identically(name):
    doc = json.loads((ROOT / "benchmarks" / f"BENCH_{name}.json").read_text())
    assert SUITES[name].render(doc) == GOLDEN[name]
