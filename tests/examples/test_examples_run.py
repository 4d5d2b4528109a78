"""The shipped examples must actually run (docs that can't rot).

Each example is executed in a subprocess with small arguments where it
accepts any; we assert on exit status and a recognizable line of output.
The long-running availability comparison is exercised at reduced scope by
its own marker-gated test.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=180):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "deterministic mapping" in out
    assert "replicas converged       : True" in out


def test_memory_analysis():
    out = run_example("memory_analysis.py")
    assert "bytes per znode" in out
    assert "ZooKeeper heap" in out


def test_elastic_backends():
    out = run_example("elastic_backends.py")
    assert "relocate" in out
    assert "300/300" in out


def test_mdtest_campaign_small():
    out = run_example("mdtest_campaign.py", "--procs", "8", "--items", "4")
    assert "Basic Lustre" in out
    assert "speedups" in out


def test_consistency_demo():
    out = run_example("consistency_demo.py", timeout=300)
    assert "consistent? False" in out          # the strawman diverges
    assert "all replicas consistent? True" in out


@pytest.mark.slow
def test_availability_comparison():
    out = run_example("availability_comparison.py", timeout=420)
    assert "longest metadata stall" in out
