"""The metadata-service abstraction the DUFS client programs against.

The paper's prototype hard-wires the namespace to ONE ZooKeeper ensemble,
which is exactly why its metadata *write* throughput stops scaling: every
mutation pays one quorum round on the same replica group (Fig. 7/8 —
adding servers widens the read fan-out but deepens the write pipeline).
:class:`MetadataService` abstracts the namespace API the client actually
uses — lookup / create / delete / readdir / rename-multi plus watch
registration — so the service *behind* that API can be swapped:

- :class:`~repro.mds.single.SingleEnsembleMDS` — the paper's design; a
  pure pass-through to one :class:`~repro.zk.client.ZKClient` that adds
  no simulator events, so a deployment built through it replays
  byte-identical traces to the pre-abstraction code.
- :class:`~repro.mds.sharded.ShardedMDS` — partitions the namespace
  across N *independent* ensembles via a deterministic
  :class:`~repro.mds.shardmap.ShardMap` (λFS / IndexFS-style), turning
  the write ceiling into a scaling axis: shard-local writes touch one
  small quorum, and only cross-shard operations pay coordination.

The method set deliberately mirrors ``ZKClient`` (``get`` / ``exists`` /
``get_children`` / ``create`` / ``set_data`` / ``delete`` / ``multi`` +
the ``op_*`` multi builders + ``last_retries``), so existing
call sites migrate by construction, not by rewrite.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..zk.client import ZKClient
from ..zk.protocol import WriteRequest


class MetadataService:
    """Abstract namespace service (see module docstring).

    A ``watch`` callback is handed to the shard client that serves the
    read, which alone keeps it: that client's fail-over delivers the
    ``lost`` events for exactly the watches it held, so the service
    relays nothing.
    """

    #: Number of independent ensembles behind this service.
    n_shards: int = 1

    # -- shard topology ----------------------------------------------------
    def client_for_shard(self, shard: int) -> ZKClient:
        raise NotImplementedError

    # -- reads -------------------------------------------------------------
    def get(self, path: str, watch=None) -> Generator:
        raise NotImplementedError

    def exists(self, path: str, watch=None) -> Generator:
        raise NotImplementedError

    def get_children(self, path: str, watch=None) -> Generator:
        raise NotImplementedError

    def resolve(self, path: str, watch=None) -> Generator:
        """Server-side whole-path lookup: returns a
        :class:`~repro.zk.protocol.ResolveResult` (never raises NoNode —
        a missing path comes back as ``status == "miss"`` with the nearest
        existing ancestor). One hop on a single ensemble; bounded hops on
        a sharded service."""
        raise NotImplementedError

    # -- writes ------------------------------------------------------------
    def create(self, path: str, data: bytes = b"") -> Generator:
        raise NotImplementedError

    def set_data(self, path: str, data: bytes, version: int = -1) -> Generator:
        raise NotImplementedError

    def delete(self, path: str, version: int = -1, *,
               is_dir: bool) -> Generator:
        """Remove ``path``. ``is_dir`` is a routing hint (the DUFS client
        always knows the type it is removing)."""
        raise NotImplementedError

    def multi(self, ops: Sequence[WriteRequest]) -> Generator:
        raise NotImplementedError

    # -- multi builders (shared wire format with ZKClient) -------------------
    op_create = staticmethod(ZKClient.op_create)
    op_delete = staticmethod(ZKClient.op_delete)
    op_set = staticmethod(ZKClient.op_set)

    # -- retry introspection -------------------------------------------------
    @property
    def last_retries(self) -> int:
        """Retries performed by the preceding operation (callers use it to
        disambiguate retried non-idempotent writes, as with ZKClient)."""
        raise NotImplementedError


def as_metadata_service(obj) -> "MetadataService":
    """Adapt ``obj`` to the service interface: a raw :class:`ZKClient` is
    wrapped in a :class:`~repro.mds.single.SingleEnsembleMDS`; an existing
    service passes through."""
    if isinstance(obj, MetadataService):
        return obj
    from .single import SingleEnsembleMDS
    return SingleEnsembleMDS(obj)
