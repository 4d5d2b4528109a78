"""Object storage server: holds file data objects, answers glimpse RPCs.

mdtest files are zero-byte, so the OSS's role in the metadata benchmarks is
the *glimpse* (file-size) RPC that every file stat() pays, plus async
object precreate/destroy casts from the MDS.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from ...errors import ENOENT, FSError
from ...models.params import LustreParams
from ...sim.node import Node
from ...sim.rpc import Reply
from ...svc import Service, TraceBus


class ObjectStorageServer:
    def __init__(self, node: Node, endpoint: str, params: LustreParams,
                 bus: Optional[TraceBus] = None):
        self.node = node
        self.endpoint = endpoint
        self.params = params
        self.objects: Dict[int, int] = {}   # object id -> size
        self.svc = s = Service(node, endpoint, deployment="lustre", bus=bus)
        self.agent = self.svc.agent
        s.expose("glimpse", self._h_glimpse)
        s.expose("punch", self._h_punch, write=True)
        s.expose("write", self._h_write, write=True)
        s.expose("read", self._h_read)
        s.expose("precreate", self._h_precreate, write=True)
        s.expose("destroy", self._h_destroy, write=True)

    def _h_precreate(self, src: str, object_id: int) -> Generator:
        yield from self.node.cpu_work(self.params.object_create_cpu)
        self.objects.setdefault(object_id, 0)

    def _h_destroy(self, src: str, object_id: int) -> Generator:
        yield from self.node.cpu_work(self.params.object_destroy_cpu)
        self.objects.pop(object_id, None)

    def _h_glimpse(self, src: str, object_id: int) -> Generator:
        yield from self.node.cpu_work(self.params.glimpse_cpu)
        return Reply(self.objects.get(object_id, 0), size=64)

    def _h_punch(self, src: str, args: Tuple[int, int]) -> Generator:
        object_id, size = args
        yield from self.node.cpu_work(self.params.object_create_cpu)
        self.objects[object_id] = size

    def _h_write(self, src: str, args: Tuple[int, int, int]) -> Generator:
        object_id, offset, length = args
        yield from self.node.cpu_work(self.params.object_create_cpu)
        yield from self.node.disk_io(64e-6 + length / 60e6)
        self.objects[object_id] = max(self.objects.get(object_id, 0),
                                      offset + length)
        return length

    def _h_read(self, src: str, args: Tuple[int, int, int]) -> Generator:
        object_id, offset, length = args
        if object_id not in self.objects:
            raise FSError(ENOENT, msg=f"object {object_id}")
        yield from self.node.cpu_work(self.params.object_create_cpu)
        size = self.objects[object_id]
        n = max(0, min(length, size - offset))
        return Reply(n, size=96 + n)
