"""The shared path helpers every layer now uses instead of re-deriving
``rsplit`` idioms locally."""

from repro.core.paths import (ancestors, basename, components, parent_dir,
                              subtree_prefix)


def test_parent_dir():
    assert parent_dir("/") == "/"
    assert parent_dir("/a") == "/"
    assert parent_dir("/a/b") == "/a"
    assert parent_dir("/a/b/c") == "/a/b"


def test_basename():
    assert basename("/") == ""
    assert basename("/a") == "a"
    assert basename("/a/b.txt") == "b.txt"


def test_components_and_depth():
    assert components("/") == []
    assert components("/a/b") == ["a", "b"]
    assert len(components("/a/b/c/d")) == 4


def test_ancestors_shallowest_first_excluding_root_and_self():
    assert list(ancestors("/")) == []
    assert list(ancestors("/a")) == []
    assert list(ancestors("/a/b")) == ["/a"]
    assert list(ancestors("/a/b/c/d")) == ["/a", "/a/b", "/a/b/c"]


def test_subtree_prefix_tests_ancestry():
    def is_ancestor(prefix, path):
        return subtree_prefix(path).startswith(subtree_prefix(prefix))

    assert subtree_prefix("/") == "/" and subtree_prefix("/a") == "/a/"
    assert is_ancestor("/", "/anything")
    assert is_ancestor("/a", "/a")            # reflexive
    assert is_ancestor("/a", "/a/b/c")
    assert not is_ancestor("/a", "/ab")       # no prefix confusion
    assert not is_ancestor("/a/b", "/a")
