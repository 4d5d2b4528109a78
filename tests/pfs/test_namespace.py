"""Unit tests for the POSIX namespace engine."""

import stat

import pytest

from repro.errors import (
    EEXIST,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FSError,
)
from repro.pfs.namespace import Namespace


@pytest.fixture
def ns():
    n = Namespace()
    n.mkdir("/a", 0o755, 1.0)
    n.mkdir("/a/b", 0o755, 2.0)
    n.create("/a/f", 0o644, 3.0)
    return n


def err(fn, *args):
    with pytest.raises(FSError) as ei:
        fn(*args)
    return ei.value.err


def test_lookup_root(ns):
    assert ns.lookup("/").is_dir


def test_mkdir_create_stat(ns):
    st = ns.stat("/a/b")
    assert st.is_dir
    st = ns.stat("/a/f")
    assert st.is_file
    assert st.st_size == 0


def test_mkdir_errors(ns):
    assert err(ns.mkdir, "/a", 0o755, 5.0) == EEXIST
    assert err(ns.mkdir, "/zz/y", 0o755, 5.0) == ENOENT
    assert err(ns.mkdir, "/a/f/x", 0o755, 5.0) == ENOTDIR


def test_create_errors(ns):
    assert err(ns.create, "/a/f", 0o644, 5.0) == EEXIST
    assert err(ns.create, "/missing/f", 0o644, 5.0) == ENOENT


def test_nlink_accounting(ns):
    assert ns.stat("/a").st_nlink == 3  # ., .., b
    ns.mkdir("/a/c", 0o755, 4.0)
    assert ns.stat("/a").st_nlink == 4
    ns.rmdir("/a/c", 5.0)
    assert ns.stat("/a").st_nlink == 3


def test_rmdir_semantics(ns):
    assert err(ns.rmdir, "/a", 9.0) == ENOTEMPTY
    assert err(ns.rmdir, "/a/f", 9.0) == ENOTDIR
    assert err(ns.rmdir, "/nope", 9.0) == ENOENT
    ns.rmdir("/a/b", 9.0)
    assert not ns.exists("/a/b")


def test_unlink_semantics(ns):
    assert err(ns.unlink, "/a/b", 9.0) == EISDIR
    assert err(ns.unlink, "/ghost", 9.0) == ENOENT
    ns.unlink("/a/f", 9.0)
    assert not ns.exists("/a/f")


def test_rename_file(ns):
    ns.rename("/a/f", "/a/b/g", 9.0)
    assert ns.exists("/a/b/g")
    assert not ns.exists("/a/f")


def test_rename_overwrites_file(ns):
    ns.create("/a/b/target", 0o644, 4.0)
    ino_src = ns.lookup("/a/f").ino
    ns.rename("/a/f", "/a/b/target", 9.0)
    assert ns.lookup("/a/b/target").ino == ino_src


def test_rename_dir_onto_nonempty_dir_fails(ns):
    ns.mkdir("/d2", 0o755, 4.0)
    ns.mkdir("/d2/kid", 0o755, 4.5)
    assert err(ns.rename, "/a/b", "/d2", 9.0) == ENOTEMPTY


def test_rename_dir_onto_empty_dir(ns):
    ns.mkdir("/d2", 0o755, 4.0)
    ns.rename("/a/b", "/d2", 9.0)
    assert ns.lookup("/d2").is_dir
    assert not ns.exists("/a/b")


def test_rename_type_mismatch(ns):
    ns.mkdir("/d2", 0o755, 4.0)
    assert err(ns.rename, "/a/f", "/d2", 9.0) == EISDIR
    assert err(ns.rename, "/a/b", "/a/f", 9.0) == ENOTDIR


def test_rename_into_own_subtree_rejected(ns):
    assert err(ns.rename, "/a", "/a/b/inside", 9.0) == EINVAL


def test_rename_dir_moves_subtree(ns):
    ns.create("/a/b/deep", 0o644, 4.0)
    ns.rename("/a", "/renamed", 9.0)
    assert ns.exists("/renamed/b/deep")


def test_symlink_and_readlink(ns):
    ns.symlink("/a/f", "/link", 5.0)
    assert ns.readlink("/link") == "/a/f"
    st = ns.stat("/link")
    assert stat.S_ISLNK(st.st_mode)
    # resolution through symlinked dir component
    ns.symlink("/a", "/adir", 6.0)
    assert ns.lookup("/adir/f").ino == ns.lookup("/a/f").ino


def test_readlink_non_symlink_is_einval(ns):
    assert err(ns.readlink, "/a/f") == EINVAL


def test_chmod(ns):
    ns.chmod("/a/f", 0o600, 9.0)
    assert ns.stat("/a/f").st_mode & 0o7777 == 0o600
    # file-type bits survive
    assert ns.stat("/a/f").is_file


def test_truncate(ns):
    ns.truncate("/a/f", 100, 9.0)
    assert ns.stat("/a/f").st_size == 100
    assert err(ns.truncate, "/a/b", 5, 9.0) == EISDIR


def test_readdir_sorted(ns):
    ns.create("/a/z", 0o644, 4.0)
    ns.create("/a/0", 0o644, 4.0)
    names = [e.name for e in ns.readdir("/a")]
    assert names == ["0", "b", "f", "z"]
    assert err(ns.readdir, "/a/f") == ENOTDIR


def test_counts(ns):
    assert ns.count_dirs() == 3  # /, /a, /a/b
    assert ns.count_files() == 1


def test_mtime_updates_on_mutation(ns):
    before = ns.stat("/a").st_mtime
    ns.create("/a/new", 0o644, 50.0)
    assert ns.stat("/a").st_mtime == 50.0 > before
