"""POSIX-style error model shared by every filesystem in the reproduction.

All filesystems in this package (the simulated Lustre and PVFS2 clients, the
FUSE layer, and DUFS itself) report failures through :class:`FSError`
carrying one of the errno constants below, mirroring how a FUSE filesystem
returns ``-errno`` values to the kernel.
"""

from __future__ import annotations

import errno as _errno

# Re-export the errno values we use so call-sites read like C code.
EPERM = _errno.EPERM
ENOENT = _errno.ENOENT
EIO = _errno.EIO
EBADF = _errno.EBADF
EACCES = _errno.EACCES
EEXIST = _errno.EEXIST
ENOTDIR = _errno.ENOTDIR
EISDIR = _errno.EISDIR
EINVAL = _errno.EINVAL
ENOSPC = _errno.ENOSPC
ENOTEMPTY = _errno.ENOTEMPTY
ENAMETOOLONG = _errno.ENAMETOOLONG
ESTALE = _errno.ESTALE
ETIMEDOUT = _errno.ETIMEDOUT
ECONNREFUSED = _errno.ECONNREFUSED
ENOSYS = _errno.ENOSYS
EXDEV = _errno.EXDEV
EBUSY = _errno.EBUSY
ENODATA = _errno.ENODATA
ELOOP = _errno.ELOOP

#: Symlinks one path resolution follows before it fails with ELOOP
#: (Linux's ``MAXSYMLINKS``).
MAXSYMLINKS = 40


class FSError(OSError):
    """A filesystem operation failed with a POSIX errno.

    ``FSError(ENOENT, "/a/b")`` renders as ``[ENOENT] /a/b: No such file or
    directory``.
    """

    def __init__(self, err: int, path: str | None = None, msg: str | None = None):
        detail = msg or _errno.errorcode.get(err, str(err))
        super().__init__(err, detail, path)
        self.err = err
        self.path = path

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        name = _errno.errorcode.get(self.err, str(self.err))
        loc = f" {self.path}" if self.path else ""
        return f"[{name}]{loc}: {self.strerror}"
