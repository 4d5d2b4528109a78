#!/usr/bin/env python
"""Defaulted parameters of ``src/repro`` callables that nobody supplies.

The static sibling of ``traffic_audit.py``: an AST pass (no import, under
a second) over ``src/``, ``perfbench/``, ``benchmarks/``, ``examples/``
and ``scripts/`` that prints every parameter with a default which no call
site outside ``tests/`` passes, by keyword or by position — an option only
its own default (or a test) ever sets. Print-only; always exits 0 (the
hit count is a ratchet row of ``tests/models/test_option_budget.py``).

The limit: call sites are matched by callee *name* (``f(...)``,
``x.f(...)``; a class name stands for its ``__init__``), so a call to any
same-named callable counts as a supplier for all of them, and a call that
spreads ``*args`` / ``**kwargs`` counts as supplying everything. It
therefore under-reports, never over-reports — except through an alias (a
function called under another name, a ``super().__init__`` forward): read
a hit as "look here", not as proof. Run: python scripts/option_audit.py
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "perfbench", "benchmarks", "examples", "scripts")


def unsupplied() -> list:
    """One ``file:line  callable(param=)`` line per hit."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in CALLERS for path in sorted((ROOT / top).rglob("*.py"))}
    positional = defaultdict(int)        # callee name -> most args passed
    keywords = defaultdict(set)          # callee name -> keywords passed
    spread = set()                       # callee names called with * / **
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            name = getattr(fn, "attr", None) or getattr(fn, "id", None)
            if any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                spread.add(name)
            positional[name] = max(positional[name], len(call.args))
            keywords[name].update(k.arg for k in call.keywords)

    hits = []
    for path, tree in trees.items():
        rel = path.relative_to(ROOT)
        if rel.parts[:2] != ("src", "repro"):
            continue
        owner = {fn: cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(fn)
            name = cls.name if cls and fn.name == "__init__" else fn.name
            if name in spread:
                continue
            args = fn.args.posonlyargs + fn.args.args
            bound = 1 if cls and args and args[0].arg in ("self", "cls") else 0
            first = len(args) - len(fn.args.defaults)
            defaulted = [(a.arg, i - bound) for i, a in enumerate(args)
                         if i >= first]
            defaulted += [(a.arg, sys.maxsize) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for param, index in defaulted:
                if param in keywords[name] or positional[name] > index:
                    continue
                where = f"{cls.name}.{fn.name}" if cls else fn.name
                hits.append(f"{rel}:{fn.lineno}  {where}({param}=)")
    return hits


def main() -> int:
    hits = unsupplied()
    print("\n".join(hits))
    print(f"\n{len(hits)} defaulted parameters no non-test call site supplies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
