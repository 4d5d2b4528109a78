"""The option ratchet: committed counts of independently settable values.

ROADMAP aim 2 is "no new knobs" — every dataclass field and every keyword
doubles the configurations tests and benchmarks must cover. The table below
is the committed state; a count may only go *down*. Going up fails here
(find the existing option, or make the value a constant); going down fails
too, once, with the instruction to lower the number — so the budget never
keeps slack a later change could spend unnoticed.
"""

import dataclasses
import inspect
import pathlib
import runpy

import pytest

from repro.chaos import run_chaos
from repro.core import build_dufs_deployment
from repro.core.client import DUFSClient
from repro.mds import ShardMap
from repro.models import params
from repro.resilience import build_retry
from repro.svc import Service
from repro.zk.client import ZKClient


def dataclass_fields() -> int:
    return sum(len(dataclasses.fields(cls)) for cls in vars(params).values()
               if dataclasses.is_dataclass(cls))


def unsupplied_defaults() -> int:
    """``scripts/option_audit.py``'s hit count (AST only, under a second)."""
    audit = pathlib.Path(__file__).resolve().parents[2] / "scripts" \
        / "option_audit.py"
    return len(runpy.run_path(str(audit))["unsupplied"]())


def parameters(fn) -> int:
    return len(inspect.signature(fn).parameters)       # ``self`` included


#: what is counted -> (how, committed count)
BUDGET = {
    "dataclass fields in models/params.py": (dataclass_fields, 117),
    "build_dufs_deployment parameters":
        (lambda: parameters(build_dufs_deployment), 21),
    "run_chaos parameters": (lambda: parameters(run_chaos), 10),
    "ZKClient.__init__ parameters":
        (lambda: parameters(ZKClient.__init__), 7),
    "DUFSClient.__init__ parameters":
        (lambda: parameters(DUFSClient.__init__), 13),
    "build_retry parameters": (lambda: parameters(build_retry), 3),
    "Service.__init__ parameters":
        (lambda: parameters(Service.__init__), 5),
    "Service.expose parameters": (lambda: parameters(Service.expose), 4),
    "ShardMap.__init__ parameters":
        (lambda: parameters(ShardMap.__init__), 4),
    "defaulted parameters no non-test call site supplies":
        (unsupplied_defaults, 88),
}


@pytest.mark.parametrize("what", [*BUDGET])
def test_option_count_only_ratchets_down(what):
    count, committed = BUDGET[what]
    measured = count()
    assert measured <= committed, (
        f"{what}: {measured}, the budget is {committed} — this round adds "
        "no knobs (ROADMAP aim 2): reuse an existing option, derive the "
        "value, or make it a constant")
    assert measured == committed, (
        f"{what}: down to {measured} from {committed} — lower the number "
        "in this file (tests/models/test_option_budget.py) to lock it in")
