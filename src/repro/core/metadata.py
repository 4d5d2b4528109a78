"""Znode payload codec (paper §IV-D).

Each virtual path has a znode; the znode's custom data field records
whether it is a directory or a file — and for files, the FID. Directory
metadata (mode, ownership) also lives here, since directories are never
materialized on the back-end storage. Symlinks are pure metadata too.

The wire format is a compact ASCII record (type byte, then fields),
mirroring the "custom data field" of the real prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .fid import fid_from_hex, fid_hex


@dataclass(frozen=True)
class DirPayload:
    mode: int = 0o755
    uid: int = 0
    gid: int = 0

    def encode(self) -> bytes:
        return f"D:{self.mode:o}:{self.uid}:{self.gid}".encode()


@dataclass(frozen=True)
class FilePayload:
    fid: int
    mode: int = 0o644

    def encode(self) -> bytes:
        return f"F:{fid_hex(self.fid)}:{self.mode:o}".encode()


@dataclass(frozen=True)
class SymlinkPayload:
    target: str

    def encode(self) -> bytes:
        return b"L:" + self.target.encode()


Payload = Union[DirPayload, FilePayload, SymlinkPayload]


def decode_payload(data: bytes) -> Payload:
    if not data:
        raise ValueError("empty znode payload")
    kind, _, rest = data.partition(b":")
    if kind == b"D":
        mode_s, uid_s, gid_s = rest.split(b":")
        return DirPayload(int(mode_s, 8), int(uid_s), int(gid_s))
    if kind == b"F":
        fid_s, _, mode_s = rest.partition(b":")
        return FilePayload(fid_from_hex(fid_s.decode()), int(mode_s, 8))
    if kind == b"L":
        return SymlinkPayload(rest.decode())
    raise ValueError(f"bad payload type {kind!r}")


def is_dir_data(data: bytes) -> bool:
    """Is this encoded payload a directory record? (No full decode.)"""
    return data.startswith(b"D:")
