"""The traffic audit's static half: its command list covers every entry
point the registries name, its keep file is well-formed and not stale, and
``--check`` tells a listed function from an unlisted one.

Nothing here runs the recorder (that is ``scripts/traffic_audit.py`` itself,
~20 min, on CI's weekly ``traffic-audit`` job); the script is loaded with
``runpy`` the way ``test_render_pin.py`` loads ``check_regression.py``.
"""

import fnmatch
import pathlib
import runpy

import pytest

from repro.bench.suite import SUITES
from repro.cli import RUNNERS

ROOT = pathlib.Path(__file__).resolve().parents[2]
AUDIT = runpy.run_path(str(ROOT / "scripts" / "traffic_audit.py"))
KEEP_TEXT = (ROOT / "scripts" / "traffic_keep.txt").read_text()


def test_command_list_names_every_registered_entry_point():
    lines = [" ".join(argv) for argv in AUDIT["commands"]("/tmp/out")]
    for runner in RUNNERS:
        assert any(f"-m repro {runner} " in line for line in lines), runner
    for suite in SUITES.values():
        bench = " ".join(["-m repro bench", *suite.selector.split(), "--json"])
        assert any(bench in line for line in lines), suite.name
        assert any(line.endswith(f"check_regression.py --suite {suite.name}")
                   for line in lines), suite.name
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert any(f"examples/{example.name}" in line for line in lines), \
            example.name
    assert any("-m perfbench run" in line for line in lines)
    # pedantic() hides its callee from sys.setprofile.
    assert any("pytest benchmarks" in line and "--benchmark-disable" in line
               for line in lines)


def test_every_keep_line_parses_and_matches_a_live_function():
    keep = AUDIT["parse_keep"](KEEP_TEXT)
    funcs = AUDIT["functions"]()
    assert keep and funcs
    for glob, reason in keep:
        assert reason in AUDIT["REASONS"] or reason.startswith("roadmap:")
        assert any(fnmatch.fnmatchcase(key, glob) for key in funcs), \
            f"stale keep line: {glob} matches no function in src/repro"


@pytest.mark.parametrize("line", [
    "core/client.py::DUFSClient.chmod",                  # no reason
    "core/client.py::DUFSClient.chmod  because",         # not on the list
    "core/client.py::DUFSClient.chmod  roadmap:",        # no item
    "DUFSClient.chmod  contract",                        # no path::
    "core/client.py::DUFSClient.chmod  contract  extra",
])
def test_malformed_keep_line_is_rejected(line):
    with pytest.raises(ValueError):
        AUDIT["parse_keep"](f"# header\n\n{line}\n")


def test_keep_file_comments_and_roadmap_reasons_parse():
    keep = AUDIT["parse_keep"](
        "# a comment\n\na.py::f  contract  # why\nb/c.py::K.*  roadmap:4c\n")
    assert keep == [("a.py::f", "contract"), ("b/c.py::K.*", "roadmap:4c")]


def test_check_separates_listed_from_unlisted(capsys):
    # Synthetic tree: f entered; g, K.m and the closure inside g never.
    funcs = {"a.py::f": (1, 3), "a.py::g": (5, 12),
             "a.py::g.<locals>.inner": (7, 9), "b/c.py::K.m": (2, 4)}
    entered = {("a.py", 1)}
    audit = AUDIT["audit"]
    assert audit(funcs, entered, [], check=True) == 1
    assert audit(funcs, entered, [("a.py::g", "contract")], check=True) == 1
    keep = [("a.py::g", "contract"), ("b/*::K.*", "roadmap:1")]
    capsys.readouterr()
    assert audit(funcs, entered, keep, check=True) == 0
    out = capsys.readouterr().out
    # g's closure is covered by g's line: 8 + 3 lines, counted once.
    assert "never entered: 11 of 14 function lines" in out
    assert "a.py::g  [contract]" in out and "inner" not in out
    # Without --check the listing is informational.
    assert audit(funcs, entered, [], check=False) == 0


def test_closure_never_called_inside_an_entered_function_is_listed(capsys):
    funcs = {"a.py::g": (5, 12), "a.py::g.<locals>.inner": (7, 9)}
    assert AUDIT["audit"](funcs, {("a.py", 5)}, [], check=True) == 1
    assert "a.py::g.<locals>.inner" in capsys.readouterr().out
