"""The dummy passthrough FUSE filesystem from the Fig. 11 memory baseline.

"a dummy FUSE filesystem which just does nothing, except forwarding the
requests to a local filesystem" (paper §V-E). Its memory footprint is flat
regardless of how many files exist — the property the figure compares
against ZooKeeper's linear growth.
"""

from __future__ import annotations

from typing import Optional

from ..models.params import FUSEParams
from ..pfs.localfs import LocalFS
from ..sim.node import Node
from .mount import FuseMount
from .ops import OperationTable


class DummyFS(FuseMount):
    """Passthrough mount over an in-memory local filesystem."""

    def __init__(self, node: Node, params: Optional[FUSEParams] = None):
        self.local = LocalFS(node)
        super().__init__(node, OperationTable.from_client(self.local.client()),
                         params=params, name="dummyfuse")
