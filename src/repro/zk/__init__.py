"""A from-scratch ZooKeeper: replicated znode tree with ZAB atomic broadcast.

Components (mirroring the real system's architecture):

- :mod:`repro.zk.data` — the znode tree (hierarchical namespace, per-znode
  stat/versions) and the deterministic transaction
  application that makes every replica converge.
- :mod:`repro.zk.protocol` — wire records (requests, proposals, acks,
  commits, votes).
- :mod:`repro.zk.server` — one ZooKeeper server: leader write pipeline
  (propose → quorum ack → commit), follower forwarding, local reads and
  watches.
- :mod:`repro.zk.election` — every role transition of a server: static
  boot, fast-leader-election, the epoch/sync phase, failure detection,
  crash recovery.
- :mod:`repro.zk.client` — the synchronous client API the paper uses
  (``zoo_create``/``zoo_get``/``zoo_set``/``zoo_delete`` and friends),
  plus ``multi`` transactions.
- :mod:`repro.zk.ensemble` — builds an ensemble on a simulated cluster.
"""

from .client import ZKClient
from .data import ZnodeStat, ZnodeStore
from .ensemble import ZKEnsemble, build_ensemble
from .errors import (
    BadVersionError,
    ConnectionLossError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    ZKError,
)
from .server import ZKServer

__all__ = [
    "ZKClient", "ZKEnsemble", "ZKServer", "ZnodeStat", "ZnodeStore",
    "build_ensemble",
    "BadVersionError", "ConnectionLossError", "NoNodeError",
    "NodeExistsError", "NotEmptyError", "ZKError",
]
