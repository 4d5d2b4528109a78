"""ZooKeeper error model (subset of the real client error codes)."""

from __future__ import annotations


class ZKError(Exception):
    """Base class; ``code`` mirrors the C client's negative error codes."""

    code = -1

    def __init__(self, path: str = "", msg: str = ""):
        super().__init__(msg or f"{type(self).__name__}: {path}")
        self.path = path


class NoNodeError(ZKError):
    code = -101


class NodeExistsError(ZKError):
    code = -110


class NotEmptyError(ZKError):
    code = -111


class BadVersionError(ZKError):
    code = -103


class ConnectionLossError(ZKError):
    code = -4


class NotLeaderError(ZKError):
    """Internal: a write reached a server that is not (any longer) leader."""

    code = -900


class StaleShardMapError(ZKError):
    """Internal: the request was stamped with a shard-map epoch that no
    longer routes its path correctly, or the path is under a subtree whose
    migration is mid-copy. Carries the new map (and the in-flight
    migration, if any) so the client can adopt and re-route without a
    round-trip to a coordinator. Deliberately *not* in ``ZKClient``'s
    retryable set — the shard client would retry against the same wrong
    shard; ``ShardedMDS`` handles it by re-routing."""

    code = -901

    def __init__(self, path: str = "", msg: str = "", shard_map=None,
                 migration=None):
        super().__init__(path, msg)
        self.shard_map = shard_map
        self.migration = migration


class BadArgumentsError(ZKError):
    code = -8
