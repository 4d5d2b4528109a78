"""Hash functions used by DUFS's deterministic mapping.

- :mod:`repro.hashing.md5` — a from-scratch RFC 1321 MD5 as the tested
  reference (the paper's mapping function is ``MD5(fid) mod N``).
- :mod:`repro.hashing.consistent` — a consistent-hash ring, implementing
  the paper's stated future work (bounded relocation when back-end storages
  are added or removed).
"""

from .consistent import ConsistentHashRing
from .md5 import md5_bytes, md5_int

__all__ = ["ConsistentHashRing", "md5_bytes", "md5_int"]
