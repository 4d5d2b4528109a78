"""``repro trace --json``: machine-readable per-endpoint/per-shard rows."""

import json

from repro.bench.trace_cli import run_trace


def test_trace_json_document():
    out = run_trace(scale="quick", phases=("dir_create",), json_path="-")
    doc = json.loads(out)                      # "-" returns JSON, no table
    assert doc["benchmark"] == "trace"
    assert doc["n_shards"] == 1
    assert "batch" not in doc                  # one ZAB write pipeline
    assert "dir_create" in doc["phases"]
    assert doc["phases"]["dir_create"]["ops"] > 0
    assert doc["rows"], "expected per-endpoint rows"
    row = doc["rows"][0]
    for key in ("deployment", "endpoint", "method", "ops", "shard"):
        assert key in row


def test_trace_json_file_and_shard_tags(tmp_path):
    path = tmp_path / "trace.json"
    table = run_trace(scale="quick", phases=("dir_create",), shards=2,
                      json_path=str(path))
    assert "[json]" in table                   # table still rendered
    doc = json.loads(path.read_text())
    assert doc["n_shards"] == 2
    shards = {r["shard"] for r in doc["rows"]
              if r["endpoint"].startswith("s1zk")}
    assert shards == {1}, "shard-1 server rows must carry their shard id"
