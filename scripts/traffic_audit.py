#!/usr/bin/env python
"""Traffic audit: which functions of ``src/repro`` does no entry point enter?

    python scripts/traffic_audit.py [--check]

Runs every non-test way into the program — each figure/table runner of
``cli.RUNNERS`` (with ``--chart --csv``) and ``claims``, each ``repro
bench`` suite of ``bench.suite.SUITES`` (with ``--json``) and its CI gate
``check_regression.py --suite`` (plus ``--list``), the ``repro chaos`` /
``trace`` / ``shardmap`` / ``profile`` variants the README shows, every
``examples/*.py``, ``perfbench run --scale tiny`` and the ``benchmarks/``
tests — each in its own process under a function-level ``sys.setprofile``
recorder. The recorder is a ``sitecustomize`` module on ``PYTHONPATH``, so
perfbench's worker subprocesses and pytest are covered. About 20 minutes
on two cores, half of it the two ``elastic`` suite runs.

It then prints every function no command entered, with its line count, and
reads ``scripts/traffic_keep.txt``: one ``path::qualname-or-glob  reason``
line per region kept without traffic (``path`` relative to ``src/repro``,
the whole ``path::qualname`` matched as one ``fnmatch`` glob), the reason
one of :data:`REASONS` or ``roadmap:<item>``. With ``--check`` the exit
code is 1 when a never-entered function is on no keep line: delete it, or
write down why it stays.

Two recorder traps, both handled by how the commands are spelled:
``benchmark.pedantic`` hides its callee from ``sys.setprofile`` (the
``benchmarks/`` tests run with ``--benchmark-disable``), and ``repro
profile`` installs cProfile over the recorder (every command is its own
process, so nothing runs after it).
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
KEEP_FILE = ROOT / "scripts" / "traffic_keep.txt"
sys.path.insert(0, str(ROOT / "src"))

#: Why a function nothing enters may stay. ``contract``: surface a test
#: oracle or DESIGN.md names, or validation of outside input;
#: ``interface``: abstract stubs and dunder protocol methods;
#: ``fault-model``: code only an injected fault reaches; ``reference``: an
#: implementation tests compare against; ``roadmap:<item>``: named by an
#: open ROADMAP item.
REASONS = ("contract", "interface", "fault-model", "reference")

#: Commands run at once. Two keeps the machine's second core busy without
#: starving perfbench's own concurrent passes of their time-outs.
WORKERS = 2

RECORDER = '''\
import atexit, os, sys, threading

_seen = set()


def _profile(frame, event, arg, add=_seen.add):
    if event == "call":
        add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["TRAFFIC_AUDIT_SRC"]
    path = os.path.join(os.environ["TRAFFIC_AUDIT_OUT"], f"{os.getpid()}.seen")
    with open(path, "w") as fh:
        for code in _seen:
            if code.co_filename.startswith(prefix):
                fh.write(f"{code.co_filename[len(prefix):]}:"
                         f"{code.co_firstlineno}\\n")


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def commands(tmp: str) -> List[List[str]]:
    """Every non-test entry point as an argv; ``tmp`` takes their output
    files. The slow ones first, so the pool's tail is short."""
    from repro.bench.suite import SUITES
    from repro.cli import RUNNERS

    py = sys.executable
    repro = [py, "-m", "repro"]
    gate = [py, "scripts/check_regression.py"]
    cmds = []
    for suite in sorted(SUITES.values(), key=lambda s: s.name != "elastic"):
        cmds += [[*repro, "bench", *suite.selector.split(), "--json",
                  os.path.join(tmp, f"BENCH_{suite.name}.json")],
                 [*gate, "--suite", suite.name]]
    cmds += [[py, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
              "-p", "no:cacheprovider"],
             [*repro, "claims"],
             [py, "-m", "perfbench", "run", "--scale", "tiny", "--seed", "1",
              "--out", os.path.join(tmp, "ledger.json")]]
    cmds += [[*repro, name, "--chart", "--csv", tmp] for name in RUNNERS]
    cmds += [[py, f"examples/{path.name}"]
             for path in sorted((ROOT / "examples").glob("*.py"))]
    cmds += [[*repro, "chaos", *variant] for variant in (
        [], ["--cache"], ["--shards", "2"], ["--resilience"],
        ["--shards", "2", "--elastic"], ["--async"],
        ["--deployment", "lustre"], ["--deployment", "pvfs"])]
    cmds += [[*repro, "trace", *variant] for variant in (
        ["--cache"],
        ["--backend", "lustre", "--shards", "2", "--json", "-"],
        ["--backend", "pvfs", "--json", os.path.join(tmp, "trace.json")])]
    cmds += [[*repro, "shardmap"], [*repro, "shardmap", "--json", "-"],
             [*repro, "profile", "fig11", "--top", "5"],
             [*gate, "--list"]]
    return cmds


def record(tmp: str) -> Set[Tuple[str, int]]:
    """Run every command under the recorder; returns the ``(path, first
    line)`` of every ``src/repro`` code object any of them entered."""
    hook = os.path.join(tmp, "hook")
    seen_dir = os.path.join(tmp, "seen")
    os.makedirs(hook)
    os.makedirs(seen_dir)
    pathlib.Path(hook, "sitecustomize.py").write_text(RECORDER)
    env = dict(os.environ, TRAFFIC_AUDIT_OUT=seen_dir,
               TRAFFIC_AUDIT_SRC=str(SRC) + os.sep,
               PYTHONPATH=os.pathsep.join([hook, str(ROOT / "src")]))

    def run(numbered):
        i, argv = numbered
        started = time.monotonic()
        with open(os.path.join(tmp, f"cmd{i:02d}.log"), "w") as log:
            code = subprocess.run(argv, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT).returncode
        shown = " ".join(a.replace(tmp, "$TMP").replace(sys.executable, "python")
                         for a in argv)
        print(f"[{time.monotonic() - started:6.0f}s] exit {code}  {shown}",
              flush=True)
        return code, shown, log.name

    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run, enumerate(commands(tmp))))
    failed = [(shown, log) for code, shown, log in results if code]
    for shown, log in failed:
        tail = pathlib.Path(log).read_text()[-1500:]
        print(f"\nFAILED: {shown}\n{tail}", file=sys.stderr)
    if failed:
        raise SystemExit(2)

    entered = set()
    for dump in pathlib.Path(seen_dir).glob("*.seen"):
        for line in dump.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            entered.add((path, int(lineno)))
    return entered


def functions() -> Dict[str, Tuple[int, int]]:
    """``path::qualname -> (first line, last line)`` of every function in
    ``src/repro``; the first line is the first decorator's, which is what
    ``co_firstlineno`` reports."""
    found: Dict[str, Tuple[int, int]] = {}

    def walk(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[f"{path}::{scope}{child.name}"] = (first,
                                                         child.end_lineno)
                walk(child, path, f"{scope}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{scope}{child.name}.")
            else:
                walk(child, path, scope)

    for file in sorted(SRC.rglob("*.py")):
        walk(ast.parse(file.read_text()), file.relative_to(SRC).as_posix(), "")
    return found


def parse_keep(text: str) -> List[Tuple[str, str]]:
    """``(glob, reason)`` per keep line; ``#`` starts a comment. Raises
    ``ValueError`` on a line that is not ``path::qualname  reason`` with a
    reason from the closed list."""
    keep = []
    for n, line in enumerate(text.splitlines(), 1):
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if len(words) != 2 or "::" not in words[0]:
            raise ValueError(f"keep line {n}: expected "
                             f"'path::qualname-or-glob  reason', got {line!r}")
        glob, reason = words
        if reason not in REASONS and not (reason.startswith("roadmap:")
                                          and len(reason) > len("roadmap:")):
            raise ValueError(f"keep line {n}: reason {reason!r} is not one "
                             f"of {', '.join(REASONS)}, roadmap:<item>")
        keep.append((glob, reason))
    return keep


def _line_count(spans: Iterable[Tuple[str, Tuple[int, int]]]) -> int:
    """Source lines covered by the given functions, nested ones once."""
    return len({(key.split("::")[0], n)
                for key, (first, last) in spans
                for n in range(first, last + 1)})


def audit(funcs: Dict[str, Tuple[int, int]], entered: Set[Tuple[str, int]],
          keep: List[Tuple[str, str]], check: bool = False) -> int:
    """Print the never-entered functions against the keep list; the exit
    code: 1 under ``check`` when one of them is on no keep line."""
    never = {key: span for key, span in funcs.items()
             if (key.split("::")[0], span[0]) not in entered}
    # A function nested in a never-entered one is covered by its line.
    outer = {key: span for key, span in never.items()
             if not any(key.startswith(f"{other}.<locals>.")
                        for other in never)}
    unlisted = []
    for key, (first, last) in sorted(outer.items()):
        reason = next((r for glob, r in keep
                       if fnmatch.fnmatchcase(key, glob)), None)
        if reason is None:
            unlisted.append(key)
        print(f"{last - first + 1:5d}  {key}  [{reason or 'UNLISTED'}]")
    print(f"\nnever entered: {_line_count(outer.items()):,} of "
          f"{_line_count(funcs.items()):,} function lines in src/repro "
          f"({len(outer)} of {len(funcs)} functions); "
          f"{len(unlisted)} on no keep line")
    for glob, _ in keep:
        if not any(fnmatch.fnmatchcase(key, glob) for key in outer):
            print(f"note: keep line '{glob}' matches no never-entered "
                  f"function — drop it")
    if unlisted and check:
        print("\nnot in scripts/traffic_keep.txt (delete the function, or "
              "add a line saying why it stays):\n  " + "\n  ".join(unlisted),
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a never-entered function is on no "
                             "keep line")
    args = parser.parse_args(argv)
    keep = parse_keep(KEEP_FILE.read_text())
    with tempfile.TemporaryDirectory(prefix="traffic-audit-") as tmp:
        entered = record(tmp)
    return audit(functions(), entered, keep, check=args.check)


if __name__ == "__main__":
    sys.exit(main())
