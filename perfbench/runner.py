"""The parent side: spawn the passes of one workload, fold them into named
metrics, and check the outputs.

Passes are fresh subprocesses (``PYTHONHASHSEED=0``). The counted pass
(cProfile costs 2-4x) runs beside the timed repeats on the sandbox's second
core; the timed repeats are rescaled to the reference speed slice by slice
(:mod:`perfbench.clock`), which also cancels what little the neighbour
costs them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from .clock import speed_sample
from .metrics import BY_NAME, END_TO_END, PER_LAYER
from .reduce import HOST_GROUPS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_TIMED, MAX_TIMED = 2, 8
#: Passes that stop after set-up: with the timed repeats' own set-ups they
#: make ``setup_s`` a median of seven or more (the ``tiny`` smoke runs one).
SETUP_ONLY = 5
CHILD_TIMEOUT_S = 150


def _spawn(workload: str, seed: int, scale: str, mode: str,
           spans_out: Optional[str] = None) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    spec = {"workload": workload, "seed": seed, "scale": scale,
            "mode": mode, "spans_out": spans_out,
            "speed_before": speed_sample(runs=5),
            "spawned_at": time.monotonic()}
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def _collect(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench pass exited {proc.returncode}:\n"
                           f"{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, scale: str = "std",
            layers: bool = False, spans_out: Optional[str] = None) -> dict:
    """Run one workload's passes. Always: the set-up passes, timed repeats
    (at least two, more until ``seconds`` of measured host time) and the
    counted pass. With ``layers``: the traced pass too."""
    running: List[subprocess.Popen] = []

    def start(mode: str, **kw) -> subprocess.Popen:
        proc = _spawn(workload, seed, scale, mode, **kw)
        running.append(proc)
        return proc

    try:
        counted_proc = start("counted")
        setups = [_collect(start("setup"))
                  for _ in range(SETUP_ONLY if scale == "std" else 1)]
        timed: List[dict] = []
        while len(timed) < MIN_TIMED or (
                sum(t["wall_raw_s"] for t in timed) < seconds
                and len(timed) < MAX_TIMED):
            timed.append(_collect(start("timed")))
        traced = _collect(start("traced", spans_out=spans_out)) \
            if layers else None
        counted = _collect(counted_proc)
    finally:
        for proc in running:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return _fold(setups, timed, counted, traced)


def _fold(setups: List[dict], timed: List[dict], counted: dict,
          traced: Optional[dict]) -> dict:
    passes = timed + [counted] + ([traced] if traced else [])
    first = timed[0]
    checks: Dict[str, bool] = {}
    for p in passes:
        for name, ok in p["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["simulated metrics identical across all passes"] = all(
        (p["sim"], p["events"], p["attempted"], p["failed"])
        == (first["sim"], first["events"], first["attempted"],
            first["failed"]) for p in passes)

    def median(key: str, passes: List[dict] = timed) -> float:
        return statistics.median(p[key] for p in passes)

    values = {"setup_s": median("setup_s", setups + timed),
              "wall_s": median("wall_s"),
              "peak_rss_mb": median("peak_rss_mb"),
              "host_mcalls": counted["host_calls"] / 1e6}
    values.update({m.name: first["sim"][m.name] for m in END_TO_END
                   if m.clock == "sim"})
    out = {
        "workload": first["workload"], "seed": first["seed"],
        "scale": first["scale"],
        "correct": all(checks.values()), "checks": checks,
        "attempted": first["attempted"], "failed": first["failed"],
        "samples": {k: first["sim"][k] for k in first["sim"]
                    if k.endswith("_samples")},
        "end_to_end": values,
        # Raw per-repeat host values: compare uses their spread to decide
        # whether a host metric can be resolved at all.
        "repeats": {
            **{k: [p[k] for p in setups + timed]
               for k in ("setup_s", "setup_raw_s")},
            **{k: [t[k] for t in timed]
               for k in ("wall_s", "wall_raw_s", "peak_rss_mb")}},
    }
    if traced is not None:
        layer = dict(traced["layers"])
        total_self = sum(g["self_s"] for g in counted["host_groups"].values())
        for group in HOST_GROUPS:
            row = counted["host_groups"][group]
            layer[f"host.calls_m.{group}"] = row["calls"] / 1e6
            layer[f"host.self_pct.{group}"] = 100.0 * row["self_s"] \
                / total_self
        wall_raw = median("wall_raw_s")
        layer["sim.events"] = first["events"]
        layer["sim.events_per_op"] = first["events"] / first["attempted"]
        layer["sim.sim_seconds"] = first["sim_seconds"]
        layer["host.events_per_wall_s"] = first["events"] / wall_raw
        layer["trace.overhead_ratio"] = traced["wall_raw_s"] / wall_raw
        out["per_layer"] = layer
    return out


def contract_line(result: dict, trace: bool) -> str:
    """The single JSON object the driver reads: every end-to-end metric
    with ``--trace 0``, every per-layer metric with ``--trace 1``."""
    catalogue, values = (PER_LAYER, result["per_layer"]) if trace \
        else (END_TO_END, result["end_to_end"])
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in catalogue},
    })


def report(result: dict) -> str:
    """Human-readable: every metric by name with its unit, then the checks."""
    lines = [f"== {result['workload']}  seed {result['seed']}  "
             f"scale {result['scale']}  ops {result['attempted']} "
             f"(failed {result['failed']})"]
    for section in ("end_to_end", "per_layer"):
        for name, value in result.get(section, {}).items():
            m = BY_NAME[name]
            note = ""
            if name.endswith("_p99_us"):
                n = result["samples"][name.replace("_p99_us", "_samples")]
                note = f"  (n={n})"
            lines.append(f"  {name:<40} {value:>16.6g} {m.unit:<10} "
                         f"[{m.clock}, {m.source}]{note}")
    for name, ok in result["checks"].items():
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    return "\n".join(lines)
