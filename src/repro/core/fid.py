"""File Identifiers (paper §IV-E).

A FID is a 128-bit integer: the concatenation of a 64-bit client id that
uniquely identifies the DUFS client *instance* that created the file, and a
64-bit per-instance creation counter. Uniqueness therefore needs no
coordination; a restarted client simply acquires a fresh client id and its
counter resets to zero.
"""

from __future__ import annotations

import itertools

FID_BITS = 128
CLIENT_ID_BITS = 64
COUNTER_BITS = 64
HEX_DIGITS = FID_BITS // 4

_instance_ids = itertools.count(1)


def allocate_client_id() -> int:
    """A fresh 64-bit client id for a new DUFS client instance.

    In the paper this comes from an external uniqueness source; the
    simulation hands out a process-global sequence, which has the same
    property.
    """
    return next(_instance_ids)


def make_fid(client_id: int, counter: int) -> int:
    if not 0 <= client_id < (1 << CLIENT_ID_BITS):
        raise ValueError(f"client id out of range: {client_id}")
    if not 0 <= counter < (1 << COUNTER_BITS):
        raise ValueError(f"counter out of range: {counter}")
    return (client_id << COUNTER_BITS) | counter


def fid_hex(fid: int) -> str:
    """Fixed-width (32-digit) hexadecimal rendering of a FID."""
    return f"{fid:0{HEX_DIGITS}x}"


def fid_bytes(fid: int) -> bytes:
    return fid.to_bytes(FID_BITS // 8, "big")


def fid_from_hex(s: str) -> int:
    if len(s) != HEX_DIGITS:
        raise ValueError(f"FID hex must be {HEX_DIGITS} digits, got {len(s)}")
    return int(s, 16)


class FIDGenerator:
    """Per-client-instance FID source (client id ‖ monotone counter)."""

    def __init__(self, client_id: int | None = None):
        self.client_id = (allocate_client_id()
                          if client_id is None else client_id)
        if not 0 <= self.client_id < (1 << CLIENT_ID_BITS):
            raise ValueError(f"client id out of range: {self.client_id}")
        self._counter = 0

    def next(self) -> int:
        fid = make_fid(self.client_id, self._counter)
        self._counter += 1
        return fid
