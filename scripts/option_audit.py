#!/usr/bin/env python
"""Options nobody sets, options set to one value, and counters nobody
reads: defaulted parameters, ``SimParams`` fields and ``self.stats`` keys.

The static sibling of ``traffic_audit.py``: an AST pass (no import, a few
seconds). Print-only; always exits 0 (every count is a ratchet row of
``tests/models/test_option_budget.py``).

``unsupplied()`` walks ``src/``, ``perfbench/``, ``benchmarks/``,
``examples/`` and ``scripts/`` and lists every parameter of a
``src/repro`` callable with a default which no call site outside
``tests/`` passes, by keyword or by position — an option only its own
default (or a test) ever sets. Call sites are matched by callee *name*
(``f(...)``, ``x.f(...)``; a class name stands for its ``__init__``), so
a call to any same-named callable counts as a supplier for all of them,
and a call that spreads ``*args`` / ``**kwargs`` counts as supplying
everything. A call through an alias counts for every function the alias
names: the arms of ``x = a if c else b``, the elements of a tuple bind
``x, y = a, b``, and the values of a module-level dict of functions
called as ``D[k](...)`` or bound by ``x = D[k]``. It therefore
under-reports, except through a plain ``g = f`` alias or a
``super().__init__`` forward: read a hit as "look here", not as proof.

``unset_fields()`` lists the scalar fields of ``models/params.py`` that
no code under those directories sets (a test does not count): no call
passes the name by keyword, or as a key of a dict literal it spreads
with ``**`` (the ``cls(**{...})`` presets), and no assignment targets
``.<name>``. Names are matched alone, so a name shared by two classes
counts for both. Fields holding a sub-params object are left
out: callers mutate those in place (``params.lustre.dlm_enabled = …``).
So is an ``InitVar`` of a class with no ``__post_init__``: the
constructor discards it, so it is no choice (and ``dataclasses.fields``
already leaves it out).

``single_valued_fields()`` lists the scalar fields that non-test code
does set, but only ever to a literal equal to the field's default: one
value in use, so a ``ClassVar`` constant, not a choice. Setters are found
and matched by name as above; a value that is no literal (a name, a call,
a tuple bind, ``+=``) counts as a different value, so it under-reports.

``unread_counters()`` lists every key of a dict literal assigned to
``self.stats`` in a ``src/repro`` class that no code under ``src/``,
``perfbench/``, ``examples/`` or ``scripts/`` reads (``tests/`` and
``perfbench/tests/`` do not count: a test is no reader, and ``self.stats``
is the owner's own bookkeeping). A read is ``x.stats["key"]`` or
``x.stats.get("key")``, the same with a loop variable over a literal
(a tuple, list or dict, or a name bound to one), or a whole-dict read:
any other use of ``x.stats``, such as ``dict(x.stats)``. Keys are judged
per owning class: a keyed read counts for the one class whose dict holds
every key it reads. A whole-dict read names no key, and a keyed read that
fits two classes names no class; such a read counts only for the classes
``UNPINNED`` names for its file.

Run: python scripts/option_audit.py
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "perfbench", "benchmarks", "examples", "scripts")
PARAMS = Path("src", "repro", "models", "params.py")
READERS = ("src", "perfbench", "examples", "scripts")

#: Class -> the files whose ``.stats`` reads no key pins to one class
#: (see ``unread_counters``) read that class's dict.
UNPINNED = {
    "ShardedMDS": ("src/repro/bench/shard_bench.py",),
    "Migrator": ("src/repro/bench/shardmap_cli.py",
                 "src/repro/mds/autoscaler.py"),
}


def _parse(root: Path, tops) -> dict:
    return {path: ast.parse(path.read_text(), str(path))
            for top in tops for path in sorted((root / top).rglob("*.py"))}


def _name(node):
    """The name ``f`` of ``f`` or ``x.f`` (None for anything else)."""
    return getattr(node, "attr", None) or getattr(node, "id", None)


def _callees(trees):
    """A function from a call's ``func`` expression to every name the
    call may reach: the name itself, or a dict's values, and whatever
    the aliases bound to those names (see the module docstring)."""
    tables = defaultdict(set)            # module-level dict -> its values
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.value, ast.Dict):
                for target in stmt.targets:
                    tables[_name(target)].update(
                        filter(None, map(_name, stmt.value.values)))

    def names(expr) -> set:
        if isinstance(expr, ast.Subscript):
            return set(tables.get(_name(expr.value), ()))
        return {_name(expr)} - {None}

    aliases = defaultdict(set)

    def bind(target, value, nested=False) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                bind(t, v, nested=True)
        elif isinstance(value, ast.IfExp):
            bind(target, value.body, nested=True)
            bind(target, value.orelse, nested=True)
        elif nested or isinstance(value, ast.Subscript):
            aliases[_name(target)].update(names(value))

    for tree in trees:
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    bind(target, stmt.value)

    def callees(expr) -> set:
        seen, todo = set(), list(names(expr))
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(aliases.get(name, ()))
        return seen

    return callees


def unsupplied(root: Path = ROOT) -> list:
    """One ``file:line  callable(param=)`` line per hit."""
    trees = _parse(root, CALLERS)
    callees = _callees(trees.values())
    positional = defaultdict(int)        # callee name -> most args passed
    keywords = defaultdict(set)          # callee name -> keywords passed
    spread = set()                       # callee names called with * / **
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            spreads = any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords)
            for name in callees(call.func):
                if spreads:
                    spread.add(name)
                positional[name] = max(positional[name], len(call.args))
                keywords[name].update(k.arg for k in call.keywords)

    hits = []
    for path, tree in trees.items():
        rel = path.relative_to(root)
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


def _assigned(target):
    """The attribute names an assignment target writes (``x.a``, tuples)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned(target.value)
    elif isinstance(target, ast.Attribute):
        yield target.attr


def _settings(root: Path):
    """``(name, value)`` per place non-test code sets a name: a keyword,
    a key of a dict literal spread with ``**``, or an attribute an
    assignment targets (``value`` None where no one expression is the
    value: a tuple bind, an augmented assignment)."""
    for tree in _parse(root, CALLERS).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for k in node.keywords:
                    if k.arg is not None:
                        yield k.arg, k.value
                    elif isinstance(k.value, ast.Dict):
                        yield from ((key.value, value) for key, value
                                    in zip(k.value.keys, k.value.values)
                                    if isinstance(key, ast.Constant))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    value = node.value \
                        if isinstance(target, ast.Attribute) else None
                    yield from ((name, value) for name in _assigned(target))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                yield from ((name, None) for name in _assigned(node.target))


def _fields(root: Path):
    """``(class, statement)`` per scalar field of ``models/params.py``."""
    classes = [c for c in ast.parse((root / PARAMS).read_text()).body
               if isinstance(c, ast.ClassDef)]
    nested = {c.name for c in classes}

    def discarded(cls, annotation: str) -> bool:
        return annotation.startswith("InitVar") and not any(
            isinstance(stmt, ast.FunctionDef)
            and stmt.name == "__post_init__" for stmt in cls.body)

    return [(cls, stmt) for cls in classes for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not ast.unparse(stmt.annotation).startswith("ClassVar")
            and ast.unparse(stmt.annotation) not in nested
            and not discarded(cls, ast.unparse(stmt.annotation))]


def unset_fields(root: Path = ROOT) -> list:
    """One ``file:line  Class.field`` line per scalar field no non-test
    code sets."""
    written = {name for name, _ in _settings(root)}
    return [f"{PARAMS}:{stmt.lineno}  {cls.name}.{stmt.target.id}"
            for cls, stmt in _fields(root) if stmt.target.id not in written]


_OTHER = object()


def _literal(node):
    """The value of a literal expression, else a marker no default equals."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _OTHER


def single_valued_fields(root: Path = ROOT) -> list:
    """One ``file:line  Class.field`` line per scalar field that non-test
    code sets, every time to a literal equal to its default."""
    values = defaultdict(list)
    for name, value in _settings(root):
        values[name].append(_literal(value))
    hits = []
    for cls, stmt in _fields(root):
        default, seen = _literal(stmt.value), values[stmt.target.id]
        if seen and default is not _OTHER and all(v == default for v in seen):
            hits.append(f"{PARAMS}:{stmt.lineno}  {cls.name}.{stmt.target.id}")
    return hits


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _stats_sites(trees: dict, root: Path) -> list:
    """``(file, line, class, value)`` per ``self.stats = …`` in a method of
    a ``src/repro`` class."""
    sites = []
    for path, tree in trees.items():
        rel = path.relative_to(root)
        if rel.parts[:2] != ("src", "repro"):
            continue
        owner = {fn: cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body
                 if isinstance(fn, ast.FunctionDef)}
        sites += [(rel.as_posix(), node.lineno, cls.name, node.value)
                  for fn, cls in owner.items() for node in ast.walk(fn)
                  if isinstance(node, ast.Assign) and any(
                      isinstance(t, ast.Attribute) and t.attr == "stats"
                      and _is_self(t.value) for t in node.targets)]
    return sites


def stats_assignments(root: Path = ROOT) -> list:
    """One ``file:line  Class.stats`` line per ``self.stats = …``."""
    return [f"{rel}:{line}  {cls}.stats" for rel, line, cls, _ in
            _stats_sites(_parse(root, ("src",)), root)]


def _literal_keys(expr, bound: dict):
    """The string keys a literal tuple/list/set/dict (or a name bound to
    one) holds, or None."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Dict):
        elts = expr.keys
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        elts = expr.elts
    else:
        return None
    if elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in elts):
        return {e.value for e in elts}
    return None


def _is_stats(node) -> bool:
    """``x.stats`` read through anything but ``self``."""
    return isinstance(node, ast.Attribute) and node.attr == "stats" \
        and isinstance(node.ctx, ast.Load) and not _is_self(node.value)


def _reads(tree):
    """The keys of each ``x.stats`` read, or None for a whole-dict read."""
    nodes = list(ast.walk(tree))
    bound = {}                           # name -> keys of its literal
    for node in nodes:
        if isinstance(node, ast.Assign):
            keys = _literal_keys(node.value, {})
            for target in node.targets:
                if keys and isinstance(target, ast.Name):
                    bound[target.id] = keys
    loops = {}                           # loop variable use -> its keys
    keyed = {}                           # x.stats -> key (None: a write)
    for node in nodes:
        for loop in [node] if isinstance(node, ast.For) \
                else getattr(node, "generators", ()):
            keys = _literal_keys(loop.iter, bound)
            if keys and isinstance(loop.target, ast.Name):
                loops.update((var, keys) for var in ast.walk(node)
                             if isinstance(var, ast.Name)
                             and var.id == loop.target.id)
        if isinstance(node, ast.Subscript) and _is_stats(node.value):
            keyed[node.value] = node.slice \
                if isinstance(node.ctx, ast.Load) else None
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and _is_stats(node.func.value):
            keyed[node.func.value] = node.args[0]
    for node in nodes:
        if not _is_stats(node):
            continue
        if node not in keyed:
            yield None
        elif isinstance(keyed[node], ast.Constant) \
                and isinstance(keyed[node].value, str):
            yield {keyed[node].value}
        elif keyed[node] in loops:
            yield loops[keyed[node]]


def unread_counters(root: Path = ROOT) -> list:
    """One ``file:line  Class.stats['key']`` line per counter no non-test
    code reads."""
    trees = _parse(root, READERS)
    owned = {cls: (rel, line, [k.value for k in value.keys])
             for rel, line, cls, value in _stats_sites(trees, root)
             if isinstance(value, ast.Dict)}
    read = defaultdict(set)              # class -> keys some reader reads
    for path, tree in trees.items():
        rel = path.relative_to(root)
        if "tests" in rel.parts:
            continue
        for keys in _reads(tree):
            fits = [cls for cls, (_, _, have) in owned.items()
                    if keys is None or keys <= set(have)]
            if keys is None or len(fits) > 1:
                fits = [cls for cls in fits
                        if rel.as_posix() in UNPINNED.get(cls, ())]
            for cls in fits:
                read[cls].update(keys or owned[cls][2])
    return [f"{rel}:{line}  {cls}.stats[{key!r}]"
            for cls, (rel, line, keys) in owned.items()
            for key in keys if key not in read[cls]]


def main() -> int:
    hits = unsupplied()
    print("\n".join(hits))
    print(f"\n{len(hits)} defaulted parameters no non-test call site supplies")
    unset = unset_fields()
    print("\n".join(["", *unset,
                     f"{len(unset)} params fields no non-test code sets"]))
    single = single_valued_fields()
    print("\n".join(["", *single, f"{len(single)} params fields non-test "
                     "code sets only to their default"]))
    unread = unread_counters()
    print("\n".join(["", *unread,
                     f"{len(unread)} counter keys no non-test code reads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
