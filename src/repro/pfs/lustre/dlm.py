"""Distributed lock manager (server side).

Tracks which client nodes hold cached read locks on each directory
resource. A namespace mutation under a directory must revoke every other
holder's lock via a blocking callback before it proceeds — the mechanism
behind Lustre's concurrent-create slowdown.
"""

from __future__ import annotations

from typing import Dict, List, Set


class LockManager:
    def __init__(self):
        # resource (directory path) -> set of client endpoints holding a
        # cached read lock
        self._granted: Dict[str, Set[str]] = {}
        # Every holder set's size, summed: kept, not recounted per charge.
        self.resident_locks = 0
        self.stats = {"grants": 0, "revokes": 0}

    def grant(self, resource: str, client: str) -> None:
        holders = self._granted.setdefault(resource, set())
        if client not in holders:
            holders.add(client)
            self.resident_locks += 1
            self.stats["grants"] += 1

    def conflicting(self, resource: str, requester: str) -> List[str]:
        """Clients whose cached lock must be revoked before a mutation."""
        return [c for c in self._granted.get(resource, ()) if c != requester]

    def revoke_all(self, resource: str, keep: str) -> List[str]:
        """Drop every holder except ``keep``; returns the revoked clients."""
        revoked = self.conflicting(resource, keep)
        kept = self._granted.get(resource, set()) & {keep}
        if kept:
            self._granted[resource] = kept
        else:
            self._granted.pop(resource, None)
        self.resident_locks -= len(revoked)
        self.stats["revokes"] += len(revoked)
        return revoked
