"""The POSIX namespace through DUFS over a *sharded* metadata plane.

``tests/pfs/test_namespace_properties.py`` and ``test_conformance.py``
hold the back-ends to an in-memory oracle; nothing did the same for the
namespace DUFS itself serves once ``ShardedMDS`` routes it over N
ensembles — two-copy directories, placeholder chains and their
reclamation are exactly the kind of state a generated sequence finds
holes in (an ``rmdir`` answering ENOTEMPTY on an empty directory was
one). Generated mkdir/rmdir/create/unlink/stat/readdir sequences from two
clients must return the oracle's errno on every op and leave the
oracle's namespace, at 1, 2 and 4 shards.
"""

from errno import (EEXIST, EISDIR, ENOENT, ENOTDIR, ENOTEMPTY)

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_dufs_deployment
from repro.errors import FSError
from tests.pfs.test_namespace_properties import Oracle

names = st.sampled_from(["a", "b", "c"])
paths = st.lists(names, min_size=1, max_size=4).map(
    lambda cs: "/" + "/".join(cs))
# An op names its target either outright (mostly a miss: the error
# paths) or by position in the oracle's current tree, deepest first, so
# that chains get built and then taken down bottom-up.
ops = st.tuples(
    st.sampled_from(["mkdir", "mkdir", "create", "rmdir", "rmdir", "unlink",
                     "stat", "readdir"]),
    st.one_of(st.none(), st.none(), paths), names, st.integers(0, 5),
    st.integers(0, 1))


def target(oracle: Oracle, op: str, name: str, pick: int) -> str:
    deepest_first = sorted((p for p in oracle.nodes if p != "/"),
                           key=lambda p: (-p.count("/"), p))
    if op in ("mkdir", "create"):
        dirs = [p for p in deepest_first
                if oracle.nodes[p] == "d" and p.count("/") < 4] + [""]
        return f"{dirs[pick % len(dirs)]}/{name}"
    return deepest_first[pick % len(deepest_first)] if deepest_first \
        else f"/{name}"


def walk_error(oracle: Oracle, path: str):
    """errno of resolving ``path``'s parent chain (None: it resolves)."""
    prefix = ""
    for comp in path.split("/")[1:-1]:
        prefix = f"{prefix}/{comp}"
        kind = oracle.nodes.get(prefix)
        if kind != "d":
            return ENOENT if kind is None else ENOTDIR
    return None


def expect(oracle: Oracle, op: str, path: str):
    """``(errno, value)`` POSIX prescribes; mutates the oracle on success."""
    err = walk_error(oracle, path)
    kind = oracle.nodes.get(path)
    if err is None:
        if op in ("mkdir", "create"):
            err = EEXIST if kind else None
        elif kind is None:
            err = ENOENT
        elif op in ("rmdir", "readdir") and kind != "d":
            err = ENOTDIR
        elif op == "unlink" and kind == "d":
            err = EISDIR
        elif op == "rmdir" and oracle.children(path):
            err = ENOTEMPTY
    if err is not None:
        return err, None
    if op == "stat":
        return None, kind
    if op == "readdir":
        return None, sorted((q.rsplit("/", 1)[1], oracle.nodes[q] == "d")
                            for q in oracle.children(path))
    getattr(oracle, op)(path)
    return None, True


def observe(dep, op: str, path: str, who: int):
    client = dep.clients[who]
    try:
        value = dep.call(getattr(client, op), path)
    except FSError as exc:
        return exc.err, None
    if op == "stat":
        value = "d" if value.is_dir else "f"
    elif op == "readdir":
        value = sorted((e.name, e.is_dir) for e in value)
    return None, value


def tree(dep, path="/"):
    out = []
    for entry in dep.call(dep.clients[0].readdir, path):
        child = f"{path.rstrip('/')}/{entry.name}"
        out.append((child, "d" if entry.is_dir else "f"))
        if entry.is_dir:
            out.extend(tree(dep, child))
    return sorted(out)


def check(dep, oracle, op, path, who):
    want = expect(oracle, op, path)
    got = observe(dep, op, path, who)
    assert got == want, (op, path, who, got, want)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(chains=st.lists(paths, max_size=3), op_list=st.lists(ops, max_size=30))
def test_sharded_dufs_matches_the_namespace_oracle(n_shards, chains, op_list):
    dep = build_dufs_deployment(n_zk=4, n_shards=n_shards, n_backends=2,
                                n_client_nodes=2, backend="local", seed=0)
    oracle = Oracle()
    for chain in chains:        # mkdir -p: deep chains in every example
        for depth in range(1, chain.count("/") + 1):
            check(dep, oracle, "mkdir",
                  "/".join(chain.split("/")[:depth + 1]), depth % 2)
    for op, path, name, pick, who in op_list:
        check(dep, oracle, op, path or target(oracle, op, name, pick), who)
    assert tree(dep) == sorted((p, k) for p, k in oracle.nodes.items()
                               if p != "/")
    # Whatever got built comes down again, bottom-up, without an error.
    for path in sorted(oracle.nodes, key=lambda p: -p.count("/")):
        if path != "/":
            check(dep, oracle, "rmdir" if oracle.nodes[path] == "d"
                  else "unlink", path, len(path) % 2)
    assert tree(dep) == []
