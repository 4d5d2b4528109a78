"""FID generation (paper §IV-E)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fid import (
    CLIENT_ID_BITS,
    FIDGenerator,
    HEX_DIGITS,
    fid_from_hex,
    fid_hex,
    make_fid,
)


def test_fid_is_client_id_concat_counter():
    fid = make_fid(0xDEAD, 0xBEEF)
    assert divmod(fid, 1 << 64) == (0xDEAD, 0xBEEF)


def test_fid_hex_is_32_digits():
    assert HEX_DIGITS == 32
    h = fid_hex(make_fid(1, 2))
    assert len(h) == 32
    assert h == "0000000000000001" + "0000000000000002"


def test_fid_hex_roundtrip():
    fid = make_fid(123456789, 987654321)
    assert fid_from_hex(fid_hex(fid)) == fid


def test_fid_from_hex_validates_length():
    with pytest.raises(ValueError):
        fid_from_hex("0123")


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        make_fid(1 << CLIENT_ID_BITS, 0)
    with pytest.raises(ValueError):
        make_fid(0, 1 << 64)
    with pytest.raises(ValueError):
        FIDGenerator(-1)


def test_generator_is_monotonic():
    gen = FIDGenerator(client_id=7)
    fids = [gen.next() for _ in range(10)]
    assert fids == sorted(fids)
    assert [divmod(f, 1 << 64) for f in fids] == [(7, i) for i in range(10)]
    assert gen._counter == 10


def test_two_instances_never_collide():
    """Restarted client = new instance = new client id (paper §IV-E)."""
    g1, g2 = FIDGenerator(), FIDGenerator()
    assert g1.client_id != g2.client_id
    a = {g1.next() for _ in range(100)}
    b = {g2.next() for _ in range(100)}
    assert not (a & b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_fid_split_roundtrip_property(cid, ctr):
    fid = make_fid(cid, ctr)
    assert divmod(fid, 1 << 64) == (cid, ctr)
    assert fid_from_hex(fid_hex(fid)) == fid
