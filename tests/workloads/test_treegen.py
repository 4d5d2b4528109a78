"""Tree scaffolding generator tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.treegen import TreeSpec, item_dir, tree_dirs


def test_dir_count_matches_formula():
    spec = TreeSpec(fanout=10, depth=2)
    assert spec.n_dirs == 10 + 100
    dirs = tree_dirs(spec)
    assert len(dirs) == 1 + spec.n_dirs  # + the root


def test_paper_tree_size():
    """The paper's fan-out 10, depth 5 tree has 111,110 directories."""
    spec = TreeSpec(fanout=10, depth=5)
    assert spec.n_dirs == 111_110


def test_bfs_order_parents_before_children():
    dirs = tree_dirs(TreeSpec(fanout=3, depth=3))
    seen = set()
    for d in dirs:
        parent = d.rsplit("/", 1)[0]
        if parent and parent != "":
            assert parent in seen or d == dirs[0], d
        seen.add(d)


def test_item_dir_spreads_items():
    spec = TreeSpec(fanout=10, depth=2)
    dirs = tree_dirs(spec)
    used = {item_dir(spec, dirs, p, i) for p in range(8) for i in range(50)}
    assert len(used) > 50  # items touch many distinct directories


def test_item_dir_deterministic():
    spec = TreeSpec()
    dirs = tree_dirs(spec)
    assert item_dir(spec, dirs, 3, 7) == item_dir(spec, dirs, 3, 7)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4))
def test_tree_dirs_count_property(fanout, depth):
    spec = TreeSpec(fanout=fanout, depth=depth)
    dirs = tree_dirs(spec)
    assert len(dirs) == 1 + sum(fanout ** d for d in range(1, depth + 1))
    assert len(set(dirs)) == len(dirs)  # no duplicates
