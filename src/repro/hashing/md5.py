"""RFC 1321 MD5, implemented from scratch.

The paper's deterministic mapping function is ``fid -> MD5(fid) mod N``
(section IV-F), chosen because MD5 distributes FIDs fairly across the
back-end storages. :func:`md5_bytes` is the reference digest, property-
tested against :mod:`hashlib` and the RFC 1321 appendix vectors;
:func:`md5_int` — what the mapping and routing paths call once or more
per simulated op — goes through :mod:`hashlib`, which the same property
test holds equal to the reference.

Note MD5 is used purely for load balancing here (as in the paper), not for
security.
"""

from __future__ import annotations

import hashlib
import struct

# Per-round left-rotate amounts (RFC 1321, section 3.4).
_SHIFTS = (
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
)

# Binary integer parts of abs(sin(i+1)) * 2^32 (the T table).
_SINES = tuple(
    int(abs(__import__("math").sin(i + 1)) * 4294967296) & 0xFFFFFFFF
    for i in range(64)
)

_MASK = 0xFFFFFFFF


def _rotl(x: int, c: int) -> int:
    return ((x << c) | (x >> (32 - c))) & _MASK


def _compress(state: tuple[int, int, int, int], block: bytes) -> tuple[int, int, int, int]:
    a0, b0, c0, d0 = state
    m = struct.unpack("<16I", block)
    a, b, c, d = a0, b0, c0, d0
    for i in range(64):
        if i < 16:
            f = (b & c) | (~b & d)
            g = i
        elif i < 32:
            f = (d & b) | (~d & c)
            g = (5 * i + 1) % 16
        elif i < 48:
            f = b ^ c ^ d
            g = (3 * i + 5) % 16
        else:
            f = c ^ (b | ~d)
            g = (7 * i) % 16
        f = (f + a + _SINES[i] + m[g]) & _MASK
        a, d, c = d, c, b
        b = (b + _rotl(f, _SHIFTS[i])) & _MASK
    return (
        (a0 + a) & _MASK,
        (b0 + b) & _MASK,
        (c0 + c) & _MASK,
        (d0 + d) & _MASK,
    )


def md5_bytes(data: bytes) -> bytes:
    """16-byte MD5 digest of ``data``."""
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    length = len(data)
    # Padding: 0x80, zeros, then the bit length as a little-endian u64.
    padded = data + b"\x80" + b"\x00" * ((55 - length) % 64)
    padded += struct.pack("<Q", (length * 8) & 0xFFFFFFFFFFFFFFFF)
    for off in range(0, len(padded), 64):
        state = _compress(state, padded[off:off + 64])
    return struct.pack("<4I", *state)


def md5_int(data: bytes) -> int:
    """Digest interpreted as a big-endian 128-bit integer (for ``mod N``)."""
    return int.from_bytes(
        hashlib.md5(data, usedforsecurity=False).digest(), "big")
