"""MD5 correctness: RFC 1321 appendix vectors + hypothesis vs hashlib."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import md5_bytes, md5_int

RFC1321_VECTORS = {
    b"": "d41d8cd98f00b204e9800998ecf8427e",
    b"a": "0cc175b9c0f1b6a831c399e269772661",
    b"abc": "900150983cd24fb0d6963f7d28e17f72",
    b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
    b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
        "d174ab98d277d9f5a5611c2c9f419d9f",
    b"1234567890" * 8:
        "57edf4a22be3c955ac49da2e2107b67a",
}


def test_rfc1321_appendix_vectors():
    for data, want in RFC1321_VECTORS.items():
        assert md5_bytes(data).hex() == want


def test_padding_boundaries():
    """Lengths straddling the 55/56/64-byte padding edges."""
    for n in (54, 55, 56, 57, 63, 64, 65, 119, 120, 128):
        data = b"x" * n
        assert md5_bytes(data).hex() == hashlib.md5(data).hexdigest()


def test_md5_int_matches_big_endian_digest():
    data = b"dufs"
    want = int.from_bytes(hashlib.md5(data).digest(), "big")
    assert md5_int(data) == want


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_matches_hashlib_on_arbitrary_input(data):
    assert md5_bytes(data) == hashlib.md5(data).digest()
    # The hot-path spelling is the reference digest read big-endian.
    assert md5_int(data) == int.from_bytes(md5_bytes(data), "big")


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
def test_distinct_inputs_distinct_digests_in_practice(a, b):
    # Not a cryptographic claim — just that the implementation doesn't
    # collapse inputs (e.g. by ignoring part of the message).
    if a != b:
        assert md5_bytes(a) != md5_bytes(b)
