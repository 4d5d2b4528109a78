"""The paper's design behind the service interface: one ZooKeeper ensemble.

Pure delegation: every method forwards to the wrapped
:class:`~repro.zk.client.ZKClient` with ``yield from`` and adds **zero**
simulator events, CPU work, or messages — a deployment built through
``SingleEnsembleMDS`` is event-for-event (hence trace-byte-) identical to
one that used the raw client directly. This is the ``n_shards=1`` default
and the baseline every sharded configuration is measured against.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..zk.client import ZKClient
from ..zk.protocol import WriteRequest
from .base import MetadataService


class SingleEnsembleMDS(MetadataService):
    """Namespace service over exactly one ensemble (today's behaviour)."""

    n_shards = 1

    def __init__(self, zk: ZKClient):
        self.zk = zk

    # -- shard topology ----------------------------------------------------
    def client_for_shard(self, shard: int) -> ZKClient:
        return self.zk

    # -- reads -------------------------------------------------------------
    def get(self, path: str, watch=None) -> Generator:
        return (yield from self.zk.get(path, watch=watch))

    def exists(self, path: str, watch=None) -> Generator:
        return (yield from self.zk.exists(path, watch=watch))

    def get_children(self, path: str, watch=None) -> Generator:
        return (yield from self.zk.get_children(path, watch=watch))

    def resolve(self, path: str, watch=None) -> Generator:
        return (yield from self.zk.resolve(path, watch=watch))

    # -- writes ------------------------------------------------------------
    def create(self, path: str, data: bytes = b"") -> Generator:
        result = yield from self.zk.create(path, data)
        return result

    def set_data(self, path: str, data: bytes, version: int = -1) -> Generator:
        return (yield from self.zk.set_data(path, data, version=version))

    def delete(self, path: str, version: int = -1, *,
               is_dir: bool) -> Generator:
        return (yield from self.zk.delete(path, version=version))

    def multi(self, ops: Sequence[WriteRequest]) -> Generator:
        return (yield from self.zk.multi(ops))

    # -- retry introspection -------------------------------------------------
    @property
    def last_retries(self) -> int:
        return self.zk.last_retries
