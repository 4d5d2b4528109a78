"""The bench suite registry and its one CI gate, over all seven suites.

Every committed ``benchmarks/BENCH_*.json`` is the document under test:
the gate must pass it against itself, flag every tracked number that
drops, report a stale baseline as "missing … regenerate" instead of a
``KeyError``, and enforce every floor. The registry's other readers —
the CLI's one ``bench`` branch, ``repro profile``, the CI matrix — are
checked against the same table.
"""

import copy
import json
import pathlib
import re

import pytest

from repro.bench import resilience_bench, shard_bench
from repro.bench.profile_cli import profile_targets, run_profile
from repro.bench.suite import SUITES, check, dumps, stale_leaves
from repro.cli import RUNNERS, main

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAMES = sorted(SUITES)
ABLATIONS = ("mdcache", "resolve", "async")


def committed(name):
    return json.loads((ROOT / SUITES[name].baseline).read_text())


def tracked_rows(name, doc):
    """Where each suite's tracked numbers live, spelled out independently
    of ``Suite.tracked``: ``(parent, key, field)`` — the label's row is
    ``parent[key]`` and its number ``parent[key][field]`` (the row itself
    when ``field`` is None)."""
    if name in ABLATIONS:
        return [(doc["on"]["phases"], p, "ops_per_s")
                for p in doc["on"]["phases"]]
    if name == "shard":
        return [(run["phases"], p, "ops_per_s")
                for run in doc["shards"].values() for p in run["phases"]]
    if name == "resilience":
        return [(cell, arm, "goodput_ops_s")
                for cell in doc["loads"].values() for arm in cell]
    if name == "elastic":
        return [(arm["throughput"], op, None)
                for arm in doc["arms"].values() for op in arm["throughput"]]
    return [(doc["workloads"], w, "norm_events_per_s")
            for w in doc["workloads"]]


def scaled(name, doc, factor):
    doc = copy.deepcopy(doc)
    for parent, key, field in tracked_rows(name, doc):
        if field is None:
            parent[key] *= factor
        else:
            parent[key][field] *= factor
    return doc


def undercut(name, doc):
    """Push every floored number of ``doc`` under its floor."""
    doc = copy.deepcopy(doc)
    if name in ABLATIONS:
        doc["speedup"] = {p: 0.5 for p in doc["speedup"]}
    if name == "async":
        doc["on"]["wblog"]["rejected"] = 3
    if name == "shard":
        top = doc["speedup_vs_1"][max(doc["shards"], key=int)]
        top["file_create"], top["dir_create"] = 1.0, 0.9
    if name == "resilience":
        doc["gate"]["on_over_off"] = 1.2
    if name == "elastic":
        doc["speedup_vs_best_static"] = dict.fromkeys(
            doc["speedup_vs_best_static"], 1.1)
    if name == "kernel":
        doc["speedup_vs_pre_pr"] = 1.2
    return doc


# -- check(): the two rules, on every suite ----------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_gate_passes_the_committed_baseline_against_itself(name):
    doc = committed(name)
    assert SUITES[name].tracked(doc), "suite tracks nothing"
    assert SUITES[name].floors(doc), "suite floors nothing"
    assert check(SUITES[name], doc, doc) == []


@pytest.mark.parametrize("name", NAMES)
def test_gate_flags_every_tracked_value_that_halves(name):
    doc = committed(name)
    failures = check(SUITES[name], scaled(name, doc, 0.5), doc)
    assert len(failures) == len(tracked_rows(name, doc))
    assert all("below baseline" in f for f in failures)


@pytest.mark.parametrize("name", NAMES)
def test_gate_tolerance_is_the_allowed_drop(name):
    doc = committed(name)
    slower = scaled(name, doc, 0.8)
    assert check(SUITES[name], slower, doc, tolerance=0.25) == []
    assert len(check(SUITES[name], slower, doc, tolerance=0.1)) \
        == len(tracked_rows(name, doc))


@pytest.mark.parametrize("name", NAMES)
def test_gate_reports_a_label_missing_from_the_baseline(name):
    doc, baseline = committed(name), committed(name)
    parent, key, _ = tracked_rows(name, baseline)[-1]
    del parent[key]                       # a stale, pre-<key> baseline
    failures = check(SUITES[name], doc, baseline)
    assert len(failures) == 1
    assert key in failures[0]
    assert "missing from baseline" in failures[0]
    assert f"regenerate it with '{SUITES[name].refresh}'" in failures[0]


@pytest.mark.parametrize("name", NAMES)
def test_refresh_records_at_the_scale_of_the_committed_baseline(name):
    """The command the gate prints must reproduce the committed file's
    scale (``quick`` is the CLI default and needs no flag)."""
    scale = committed(name)["scale"]
    flag = re.search(r"--scale (\S+)", SUITES[name].refresh)
    assert (flag.group(1) if flag else "quick") == scale
    assert SUITES[name].refresh.endswith(f"--json {SUITES[name].baseline}")


@pytest.mark.parametrize("name", NAMES)
def test_gate_tolerates_an_empty_baseline_document(name):
    doc = committed(name)
    failures = check(SUITES[name], doc, {})
    assert len(failures) == len(tracked_rows(name, doc))
    assert all("missing from baseline" in f and "regenerate" in f
               for f in failures)


@pytest.mark.parametrize("name", NAMES)
def test_gate_enforces_every_floor(name):
    doc = committed(name)
    failures = check(SUITES[name], undercut(name, doc), doc)
    assert len(failures) == len(SUITES[name].floors(doc))
    assert all("acceptance floor" in f for f in failures)


def test_floors_name_what_they_guard():
    def labels(name):
        return [label for label, _, _ in SUITES[name].floors(committed(name))]
    assert [lab.split()[0] for lab in labels("mdcache")] \
        == ["stat_hot", "stat_shared"]
    assert labels("resolve") == ["deep_stat resolve speedup at depth 8"]
    assert labels("shard") == ["file_create 4-shard speedup",
                               "dir_create 4-shard speedup"]
    assert "2.0x load" in labels("resilience")[0]
    assert [lab.split()[0] for lab in labels("elastic")] \
        == ["file_create", "file_stat"]
    assert any("rejected" in lab for lab in labels("async"))


def test_async_gate_flags_rejected_ops():
    doc = committed("async")
    dirty = copy.deepcopy(doc)
    dirty["on"]["wblog"]["rejected"] = 3
    failures = check(SUITES["async"], dirty, doc)
    assert len(failures) == 1 and "rejected" in failures[0]


def test_shard_gate_reports_a_missing_shard_count():
    doc, baseline = committed("shard"), committed("shard")
    del baseline["shards"]["4"]
    failures = check(SUITES["shard"], doc, baseline)
    assert len(failures) == len(doc["shards"]["4"]["phases"])
    assert all("4 shard(s)" in f and "regenerate" in f for f in failures)


def test_resilience_gate_names_the_cell_that_dropped():
    doc = committed("resilience")
    slower = copy.deepcopy(doc)
    slower["loads"]["2"]["on"]["goodput_ops_s"] *= 2 / 3
    failures = check(SUITES["resilience"], slower, doc, tolerance=0.25)
    assert len(failures) == 1 and "on @ 2x" in failures[0]


def test_shard_rerun_reproduces_the_recorded_sweep():
    suite = SUITES["shard"]
    assert suite.rerun(committed("shard")) == {"shard_counts": [1, 2, 4]}
    assert suite.rerun({}) == {}          # falls back to run()'s default
    assert SUITES["mdcache"].rerun(committed("mdcache")) == {}


# -- the one serialisation, and the stale-baseline note -----------------------
@pytest.mark.parametrize("name", NAMES)
def test_committed_baselines_are_in_the_one_serialisation(name):
    text = (ROOT / SUITES[name].baseline).read_text()
    assert dumps(json.loads(text)) == text


def test_stale_leaves_lists_dotted_paths_of_every_difference():
    base = {"a": {"b": 1, "c": [1, 2, 3]}, "d": "x", "gone": 0}
    assert stale_leaves(copy.deepcopy(base), base) == []
    fresh = {"a": {"b": 2, "c": (1, 2, 4)}, "d": "x", "new": {"k": 1}}
    assert stale_leaves(fresh, base) == ["a.b", "a.c.2", "gone", "new"]
    # Tuples and lists are the same leaf once written; a grown list is not.
    assert stale_leaves({"c": (1, 2)}, {"c": [1, 2]}) == []
    assert stale_leaves({"c": [1, 2, 3]}, {"c": [1, 2]}) == ["c.2"]


def test_only_the_wall_clock_suite_is_inexact():
    assert [s.name for s in SUITES.values() if not s.exact] == ["kernel"]


# -- no suite takes a seed ----------------------------------------------------
def test_suites_open_only_the_streams_their_documents_do_not_show(
        streams_opened):
    """A suite takes no seed because no seed moves its document: mdcache
    and async open no random stream (asserted on the runs
    ``test_cli_bench_without_a_selector…`` and ``test_async_bench.py``
    already make), and neither does shard; resolve shuffles its epoch
    order and an overloaded resilience arm jitters its retry sleeps, and
    neither reaches a reported number (MODEL.md §10). A new stream here
    is a new stochastic input: the seed comes back with it."""
    shard_bench._run_one(2, "quick")
    assert streams_opened == []
    SUITES["resolve"].run(scale="quick")
    assert {name.rsplit(".", 1)[0] for name in streams_opened} \
        == {"dltrain.epoch"}
    del streams_opened[:]
    resilience_bench._run_arm(load=2.0, resilient=True, duration=0.5,
                              n_clients=2)
    assert {name.rsplit(".", 1)[0] for name in streams_opened} \
        == {"zk.client"}


# -- the registry's readers ---------------------------------------------------
def test_ci_matrix_is_the_registry():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.search(r"^\s*suite:\s*\[([^\]]*)\]", workflow, re.M).group(1)
    assert sorted(re.findall(r"[\w-]+", matrix)) == sorted(SUITES)
    assert "Upload bench baseline" not in workflow


def test_every_suite_and_every_figure_is_a_profile_target():
    targets = set(profile_targets())
    assert targets >= {"bench"} | {f"bench:{s}" for s in SUITES} \
        | set(RUNNERS)
    assert targets >= {"kernel", "kernel:timers", "kernel:fanout",
                       "kernel:spawn_interrupt", "kernel:resource",
                       "singledir", "cmd", "fig7"}


def test_profile_runs_a_target_and_rejects_an_unknown_one():
    out = run_profile("kernel:resource", scale="quick", top=5)
    assert out.startswith("profile: target=kernel:resource scale=quick")
    assert "function calls" in out
    with pytest.raises(ValueError, match="bench:elastic"):
        run_profile("bench:nope")


def test_selectors_are_distinct_and_one_suite_is_the_default():
    selectors = [s.selector for s in SUITES.values()]
    assert len(set(selectors)) == len(selectors)
    assert [s.name for s in SUITES.values() if not s.selector] == ["mdcache"]


@pytest.mark.parametrize("argv, named", [
    (["bench", "--kernel", "--resolve"], ("--kernel", "--resolve")),
    (["bench", "--shards", "1,2,4", "--async"],
     ("--shards", "--async-writes")),
])
def test_cli_rejects_conflicting_bench_selectors(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in named)


def test_cli_bench_without_a_selector_is_the_mdcache_suite(
        tmp_path, capsys, streams_opened):
    path = tmp_path / "fresh.json"
    assert main(["bench", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cache ablation (scale=quick):")
    assert f"[json] {path}" in out
    # Simulated clock: the fresh document IS the committed baseline.
    assert path.read_text() == (ROOT / SUITES["mdcache"].baseline).read_text()
    assert streams_opened == []             # why the suite takes no seed
