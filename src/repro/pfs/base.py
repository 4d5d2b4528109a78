"""Common filesystem types: stat results, dir entries, the client interface.

Every filesystem client in this package (Lustre, PVFS, local, DUFS) is
*duck-typed* against :class:`FileSystemClient`: each operation is a
generator driven inside a simulation process (``yield from client.mkdir(p)``)
that returns its result or raises :class:`repro.errors.FSError` with a
POSIX errno — the same contract a FUSE operation table has.
"""

from __future__ import annotations

import stat as statmod
from dataclasses import dataclass
from typing import Generator, List, Protocol

S_IFDIR = statmod.S_IFDIR
S_IFREG = statmod.S_IFREG
S_IFLNK = statmod.S_IFLNK

DEFAULT_DIR_MODE = S_IFDIR | 0o755
DEFAULT_FILE_MODE = S_IFREG | 0o644


@dataclass
class StatResult:
    """POSIX ``struct stat`` (the fields mdtest and DUFS care about)."""

    st_mode: int = DEFAULT_FILE_MODE
    st_ino: int = 0
    st_nlink: int = 1
    st_uid: int = 0
    st_gid: int = 0
    st_size: int = 0
    st_atime: float = 0.0
    st_mtime: float = 0.0
    st_ctime: float = 0.0

    @property
    def is_dir(self) -> bool:
        return statmod.S_ISDIR(self.st_mode)

    @property
    def is_file(self) -> bool:
        return statmod.S_ISREG(self.st_mode)


@dataclass(frozen=True)
class DirEntry:
    name: str
    is_dir: bool
    ino: int = 0


@dataclass
class StatVFS:
    """``statfs`` result: inode and capacity accounting. The paper's
    testbed disks were 250 GB SATA drives; capacities default to that."""

    f_files: int = 0            # inodes in use
    f_dirs: int = 0
    f_bytes_used: int = 0
    f_capacity: int = 250 * 10**9

    def merge(self, other: "StatVFS") -> "StatVFS":
        return StatVFS(self.f_files + other.f_files,
                       self.f_dirs + other.f_dirs,
                       self.f_bytes_used + other.f_bytes_used,
                       self.f_capacity + other.f_capacity)


class FileSystemClient(Protocol):
    """The POSIX-ish operation set (all methods are generators).

    ``mkdir``/``rmdir``/``create``/``unlink``/``stat``/``readdir``/
    ``rename``/``chmod``/``truncate``/``access``/``symlink``/``readlink``/
    ``open``/``read``/``write`` — mirroring the operations the DUFS
    prototype implements (paper §IV-C).
    """

    def mkdir(self, path: str, mode: int = 0o755) -> Generator: ...
    def rmdir(self, path: str) -> Generator: ...
    def create(self, path: str, mode: int = 0o644) -> Generator: ...
    def unlink(self, path: str) -> Generator: ...
    def stat(self, path: str) -> Generator: ...
    def readdir(self, path: str) -> Generator: ...
    def rename(self, src: str, dst: str) -> Generator: ...
    def chmod(self, path: str, mode: int) -> Generator: ...
    def truncate(self, path: str, size: int) -> Generator: ...
    def access(self, path: str, mode: int = 0) -> Generator: ...
    def symlink(self, target: str, linkpath: str) -> Generator: ...
    def readlink(self, path: str) -> Generator: ...
    def open(self, path: str, flags: int = 0) -> Generator: ...
    def read(self, path: str, offset: int, size: int) -> Generator: ...
    def write(self, path: str, offset: int, data: bytes) -> Generator: ...


def normalize_path(path: str) -> str:
    """Collapse redundant separators; keep it absolute."""
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


def path_components(path: str) -> List[str]:
    return [p for p in path.split("/") if p]
