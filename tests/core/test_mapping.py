"""Deterministic mapping function and physical layout (paper §IV-F/G)."""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fid import fid_bytes, make_fid
from repro.core.mapping import (
    MappingFunction,
    physical_dirs,
    physical_path,
    split_hex,
)


def test_paper_fig4_example():
    """FID 0123456789abcdef -> cdef / 89ab / 4567 / 0123 (verbatim)."""
    name, d1, d2, d3 = split_hex("0123456789abcdef")
    assert (name, d1, d2, d3) == ("0123", "4567", "89ab", "cdef")
    # path = d3/d2/d1/filename
    assert f"{d3}/{d2}/{d1}/{name}" == "cdef/89ab/4567/0123"


def test_physical_path_128bit():
    fid = make_fid(0x0123456789ABCDEF, 0x0011223344556677)
    assert physical_path(fid) == \
        "/44556677/00112233/89abcdef/01234567"


def test_physical_dirs_are_path_prefixes():
    fid = make_fid(42, 43)
    dirs = physical_dirs(fid)
    path = physical_path(fid)
    assert len(dirs) == 3
    for d in dirs:
        assert path.startswith(d + "/") or path.startswith(d)
    assert dirs == sorted(dirs, key=len)


def test_split_hex_validates():
    with pytest.raises(ValueError):
        split_hex("abc")


def test_mapping_matches_paper_formula():
    """backend = MD5(fid) mod N, byte-for-byte."""
    mapping = MappingFunction(4)
    for i in range(50):
        fid = make_fid(7, i)
        want = int.from_bytes(hashlib.md5(fid_bytes(fid)).digest(), "big") % 4
        assert mapping.backend_for(fid) == want


def test_mapping_is_fair():
    """MD5 distributes FIDs evenly (the reason the paper picked it)."""
    mapping = MappingFunction(4)
    counts = Counter(mapping.backend_for(make_fid(3, i)) for i in range(4000))
    for backend in range(4):
        assert 800 < counts[backend] < 1200


def test_mapping_deterministic_across_instances():
    """Every DUFS client computes the same location without coordination."""
    m1, m2 = MappingFunction(3), MappingFunction(3)
    fids = [make_fid(9, i) for i in range(200)]
    assert [m1.backend_for(f) for f in fids] == [m2.backend_for(f) for f in fids]


def test_mapping_validation():
    with pytest.raises(ValueError):
        MappingFunction(0)
    with pytest.raises(ValueError):
        MappingFunction(2, strategy="nope")


def test_md5mod_cannot_grow():
    mapping = MappingFunction(2)
    with pytest.raises(RuntimeError):
        mapping.add_backend()


def test_consistent_strategy_bounded_relocation():
    """The paper's future work: adding a mount relocates ~1/(N+1) files."""
    mapping = MappingFunction(4, strategy="consistent")
    fids = [make_fid(11, i) for i in range(3000)]
    before = {f: mapping.backend_for(f) for f in fids}
    new_idx = mapping.add_backend()
    moved = [f for f in fids if mapping.backend_for(f) != before[f]]
    assert len(moved) < len(fids) / 3          # mod-N would move ~4/5
    assert all(mapping.backend_for(f) == new_idx for f in moved)


def test_consistent_strategy_is_fair_too():
    mapping = MappingFunction(4, strategy="consistent", replicas=128)
    counts = Counter(mapping.backend_for(make_fid(5, i)) for i in range(4000))
    for backend in range(4):
        assert 550 < counts[backend] < 1600


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(1, 8))
def test_backend_always_in_range(fid, n):
    mapping = MappingFunction(n)
    assert 0 <= mapping.backend_for(fid) < n


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**128 - 1))
def test_physical_path_structure(fid):
    p = physical_path(fid)
    parts = p.strip("/").split("/")
    assert len(parts) == 4
    assert all(len(part) == 8 for part in parts)
    # Recombining in layout order recovers the FID hex.
    name, d1, d2, d3 = parts[3], parts[2], parts[1], parts[0]
    assert name + d1 + d2 + d3 == f"{fid:032x}"
