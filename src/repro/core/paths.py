"""Shared virtual-path helpers for the DUFS namespace.

Every layer that reasons about the namespace — the DUFS client's parent
checks, the metadata cache, the shard map's hash-of-parent routing, the
namespace auditor, the Lustre path model — used to re-derive the parent
directory with its own copy of ``path.rsplit("/", 1)[0] or "/"``. These
are the single definitions. Paths are always absolute, ``"/"``-separated
and normalized (no trailing slash except the root itself), exactly the
form :func:`repro.pfs.base.normalize_path` produces.

This module is a leaf: it imports nothing from the package, so the mds,
pfs and chaos layers can use it without touching the rest of
:mod:`repro.core` (whose ``__init__`` resolves submodules lazily for the
same reason).
"""

from __future__ import annotations

from typing import Iterator, List


def parent_dir(path: str) -> str:
    """Directory containing ``path`` (``"/"`` for root-level entries and
    for the root itself)."""
    return path.rsplit("/", 1)[0] or "/"


def basename(path: str) -> str:
    """Final component of ``path`` (``""`` for the root)."""
    return path.rsplit("/", 1)[-1]


def components(path: str) -> List[str]:
    """Name components of ``path`` (``[]`` for the root)."""
    if path == "/":
        return []
    return path.split("/")[1:]


def ancestors(path: str) -> Iterator[str]:
    """Proper ancestors of ``path`` below the root, shallowest first:
    ``/a/b/c`` -> ``/a``, ``/a/b``. The root and ``path`` itself are
    excluded (callers special-case ``"/"``, which always exists)."""
    comps = components(path)
    prefix = ""
    for comp in comps[:-1]:
        prefix = f"{prefix}/{comp}"
        yield prefix


def is_ancestor(prefix: str, path: str) -> bool:
    """True if ``prefix`` is ``path`` itself or a directory above it."""
    return path == prefix or prefix == "/" or path.startswith(prefix + "/")
