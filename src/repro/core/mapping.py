"""The deterministic mapping function and physical-path layout (§IV-F/G).

Back-end choice: ``fid -> MD5(fid) mod N`` — deterministic, so every DUFS
client locates a file's storage without coordination, and MD5's uniformity
load-balances the mounts. The future-work alternative (consistent hashing,
§VII) is selectable via ``strategy="consistent"`` and keeps relocation
bounded when mounts are added/removed — exercised by the ablation bench.

Physical layout: the FID's fixed-width hex rendering is split into four
equal components; the *first* component is the physical filename and the
remaining three, in reverse order, form the directory chain — spreading
creates across many directories to avoid single-directory congestion. The
paper's example (64-bit FID ``0123456789abcdef`` → ``cdef/89ab/4567/0123``)
is preserved verbatim by :func:`split_hex`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Tuple

from ..hashing.consistent import ConsistentHashRing
from ..hashing.md5 import md5_int
from .fid import fid_bytes, fid_hex, make_fid


def split_hex(hexstr: str) -> Tuple[str, str, str, str]:
    """Split a FID's hex form into the 4 layout components.

    Returns ``(filename, d1, d2, d3)`` such that the physical path is
    ``d3/d2/d1/filename`` (paper Fig. 4).
    """
    if len(hexstr) % 4:
        raise ValueError(f"hex length {len(hexstr)} not divisible by 4")
    q = len(hexstr) // 4
    return (hexstr[0:q], hexstr[q:2 * q], hexstr[2 * q:3 * q],
            hexstr[3 * q:4 * q])


#: Physical layouts: the order of the :func:`split_hex` components in the
#: path, top-level directory first. ``"paper"`` is Fig. 4 verbatim: the
#: fast-varying low counter bits on top — maximum spread, but every create
#: mints a fresh chain. ``"amortized"`` puts the client-id bits on top, so
#: an instance's chain is made once, at its mount, and reused — the steady
#: state the paper's throughput implies; the benchmark default (DESIGN.md
#: "Known deviations").
LAYOUTS = {"paper": itemgetter(3, 2, 1, 0), "amortized": itemgetter(0, 1, 2, 3)}


def physical_path(fid: int, layout: str = "paper") -> str:
    """Absolute path of the file's contents on its back-end mount."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    return "/%s/%s/%s/%s" % LAYOUTS[layout](split_hex(fid_hex(fid)))


def physical_dirs(fid: int, layout: str = "paper") -> List[str]:
    """The chain :func:`physical_path` needs: its first 1, 2, 3 parts."""
    path = physical_path(fid, layout)
    return [path.rsplit("/", k)[0] for k in (3, 2, 1)]


def shared_chain(client_id: int, layout: str) -> List[str]:
    """The chain every FID of one client instance shares (until its counter
    passes 2**32), made at its mount; none when the counter's fast-varying
    low bits (component 3) name a directory instead of the file."""
    chain = physical_dirs(make_fid(client_id, 0), layout)
    return chain if LAYOUTS[layout](range(4))[3] == 3 else []


class MappingFunction:
    """fid -> back-end index, via MD5-mod-N or consistent hashing."""

    def __init__(self, n_backends: int, strategy: str = "md5mod",
                 replicas: int = 64):
        if n_backends < 1:
            raise ValueError("need at least one back-end")
        if strategy not in ("md5mod", "consistent"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.n_backends = n_backends
        self._ring: Optional[ConsistentHashRing] = None
        if strategy == "consistent":
            self._ring = ConsistentHashRing(range(n_backends),
                                            replicas=replicas)

    def backend_for(self, fid: int) -> int:
        if self._ring is not None:
            return self._ring.lookup(fid_bytes(fid))  # type: ignore[return-value]
        return md5_int(fid_bytes(fid)) % self.n_backends

    # -- elasticity (consistent strategy only) ------------------------------
    def add_backend(self) -> int:
        """Add a mount; only meaningful under consistent hashing."""
        if self._ring is None:
            raise RuntimeError(
                "MD5-mod-N cannot grow without relocating ~all files; "
                "use strategy='consistent' (the paper's future work)")
        idx = self.n_backends
        self._ring.add(idx)
        self.n_backends += 1
        return idx
