"""The option ratchet: committed counts of independently settable values,
and of the lines of code that implement them.

ROADMAP aim 2 is "no new knobs" — every dataclass field and every keyword
doubles the configurations tests and benchmarks must cover — and "the
same numbers from less code". The table below
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

import repro
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


ROOT = pathlib.Path(__file__).resolve().parents[2]
AUDIT = ROOT / "scripts" / "option_audit.py"


def audit_count(function: str) -> int:
    """The length of one ``scripts/option_audit.py`` list (AST only,
    under a second)."""
    return len(runpy.run_path(str(AUDIT))[function]())


def source_lines(package: str = "") -> int:
    """Lines of every ``.py`` file under ``src/repro/<package>``."""
    root = pathlib.Path(repro.__file__).parent / package
    return sum(len(p.read_text().splitlines()) for p in root.rglob("*.py"))


def file_lines(path: str) -> int:
    """Lines of the one file ``src/repro/<path>``."""
    return len((pathlib.Path(repro.__file__).parent / path).read_text()
               .splitlines())


def doc_lines() -> int:
    """Lines of the two documents that describe the model."""
    return sum(len((ROOT / name).read_text().splitlines())
               for name in ("docs/MODEL.md", "README.md"))


def parameters(fn) -> int:
    return len(inspect.signature(fn).parameters)       # ``self`` included


#: what is counted -> (how, committed count)
BUDGET = {
    "dataclass fields in models/params.py": (dataclass_fields, 38),
    "params fields no non-test code sets":
        (lambda: audit_count("unset_fields"), 0),
    "params fields non-test code sets only to their default":
        (lambda: audit_count("single_valued_fields"), 0),
    "build_dufs_deployment parameters":
        (lambda: parameters(build_dufs_deployment), 19),
    "run_chaos parameters": (lambda: parameters(run_chaos), 7),
    "ZKClient.__init__ parameters":
        (lambda: parameters(ZKClient.__init__), 7),
    "DUFSClient.__init__ parameters":
        (lambda: parameters(DUFSClient.__init__), 9),
    "build_retry parameters": (lambda: parameters(build_retry), 3),
    "Service.__init__ parameters":
        (lambda: parameters(Service.__init__), 5),
    "Service.expose parameters": (lambda: parameters(Service.expose), 3),
    "ShardMap.__init__ parameters":
        (lambda: parameters(ShardMap.__init__), 4),
    "defaulted parameters no non-test call site supplies":
        (lambda: audit_count("unsupplied"), 51),
    "counter keys no non-test code reads":
        (lambda: audit_count("unread_counters"), 0),
    "self.stats assignments in src/repro":
        (lambda: audit_count("stats_assignments"), 8),
    "lines of src/repro": (source_lines, 15969),
    "lines of src/repro/zk": (lambda: source_lines("zk"), 1946),
    "lines of src/repro/core/client.py":
        (lambda: file_lines("core/client.py"), 638),
    "lines of docs/MODEL.md + README.md": (doc_lines, 2070),
}


@pytest.mark.parametrize("what", [*BUDGET])
def test_option_count_only_ratchets_down(what):
    count, committed = BUDGET[what]
    measured = count()
    assert measured <= committed, (
        f"{what}: {measured}, the budget is {committed} — this round adds "
        "no knobs and no code (ROADMAP aim 2): reuse an existing option, "
        "derive the value, or make it a constant")
    assert measured == committed, (
        f"{what}: down to {measured} from {committed} — lower the number "
        "in this file (tests/models/test_option_budget.py) to lock it in")
