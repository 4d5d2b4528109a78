"""The commit seam's at-least-once outcome rule, over both write paths.

A stub metadata service scripts what the real one does under retries: a
mutation *lands* and its reply is lost (the retry's duplicate then answers
NodeExists/NoNode with ``last_retries == 1``), collides for real, or ends
with the outcome unknown (ConnectionLoss). The synchronous client and the
write-behind client must draw the same conclusion from the same evidence:
success vs ``FSError`` (raised now, or deferred to the next ``flush``), and
whether a created file's physical half is kept.
"""

import pytest

from repro.core.client import DUFSClient
from repro.core.metadata import DirPayload, FilePayload, SymlinkPayload
from repro.errors import EEXIST, EIO, ENOENT, FSError
from repro.mds import MetadataService
from repro.models.params import AsyncParams
from repro.pfs.localfs import LocalFS
from repro.sim import Cluster
from repro.zk.data import ZnodeStat
from repro.zk.errors import (ConnectionLossError, NoNodeError,
                             NodeExistsError)

RPC = 1e-4          # simulated round trip of the stub


class StubMDS(MetadataService):
    """Flat in-memory namespace with scripted faults.

    ``script[(method, path)]`` holds one behaviour for the next such call:
    ``"lost"`` applies the mutation, then raises what the retried
    duplicate would (``last_retries = 1``); ``"vanish"`` has somebody else
    remove the node first; an exception instance is raised as is (nothing
    applied, ``last_retries = 0``).
    """

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.nodes = {}
        self.script = {}
        self._last_retries = 0

    @property
    def last_retries(self):
        return self._last_retries

    def _enter(self, method, path):
        yield self.sim.timeout(RPC)
        self._last_retries = 0
        fault = self.script.pop((method, path), None)
        if isinstance(fault, Exception):
            raise fault
        return fault

    def get(self, path, watch=None):
        yield from self._enter("get", path)
        if path not in self.nodes:
            raise NoNodeError(path)
        return self.nodes[path], ZnodeStat()

    def create(self, path, data=b"", ephemeral=False, sequential=False):
        fault = yield from self._enter("create", path)
        if path in self.nodes:
            raise NodeExistsError(path)
        self.nodes[path] = data
        if fault == "lost":
            self._last_retries = 1
            raise NodeExistsError(path)
        return path

    def delete(self, path, version=-1, is_dir=None):
        fault = yield from self._enter("delete", path)
        if fault == "vanish":
            del self.nodes[path]
        if path not in self.nodes:
            raise NoNodeError(path)
        del self.nodes[path]
        if fault == "lost":
            self._last_retries = 1
            raise NoNodeError(path)


class Rig:
    def __init__(self, mode):
        self.cluster = Cluster(seed=0)
        node = self.cluster.add_node("c0")
        self.mds = StubMDS(self.cluster.sim)
        self.backends = [LocalFS(node) for _ in range(2)]
        awrite = AsyncParams.async_on() if mode == "async" else None
        self.client = DUFSClient(node, self.mds,
                                 [be.client() for be in self.backends],
                                 client_id=7, awrite=awrite)
        self.node = node

    def files(self):
        return sum(be.ns.count_files() for be in self.backends)

    def outcome(self, op, *args):
        """Run one op and the flush that follows it; ``"ok"`` or the
        errno the application gets to see, now or deferred."""
        def main():
            try:
                yield from getattr(self.client, op)(*args)
            except FSError as exc:
                return exc.errno
            errors = yield from self.client.flush()
            return errors[0][1].errno if errors else "ok"

        result = self.cluster.sim.run(until=self.node.spawn(main()))
        # The write-behind rollback of a rejected create is fire-and-forget.
        self.cluster.sim.run(until=self.cluster.sim.now + 0.1)
        return result


#: op -> (client call, payload another client would have left at the path)
CREATES = {"mkdir": (("mkdir", "/x"), DirPayload()),
           "create": (("create", "/x"), FilePayload(0xBEEF)),
           "symlink": (("symlink", "/target", "/x"), SymlinkPayload("/other"))}
REMOVES = {"rmdir": (("rmdir", "/x"), DirPayload()),
           "unlink": (("unlink", "/x"), FilePayload(0xBEEF))}


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("case", ["landed-reply-lost", "genuine"])
@pytest.mark.parametrize("op", [*CREATES, *REMOVES])
def test_both_write_paths_agree_on_the_outcome(op, case, mode):
    rig = Rig(mode)
    lost = case == "landed-reply-lost"
    if op in CREATES:
        call, theirs = CREATES[op]
        if lost:
            rig.mds.script[("create", "/x")] = "lost"
        else:
            rig.mds.nodes["/x"] = theirs.encode()    # a genuine collision
        expected = "ok" if lost else EEXIST
        expected_files = 1 if (op == "create" and lost) else 0
    else:
        call, theirs = REMOVES[op]
        rig.mds.nodes["/x"] = theirs.encode()
        # A genuine absence: somebody else's remove wins the race between
        # our lookup and our delete.
        rig.mds.script[("delete", "/x")] = "lost" if lost else "vanish"
        expected = "ok" if lost else ENOENT
        expected_files = 0

    assert rig.outcome(*call) == expected
    assert rig.files() == expected_files
    assert ("/x" in rig.mds.nodes) == (op in CREATES)
    if op == "create" and not lost:
        assert rig.mds.nodes["/x"] == theirs.encode()   # theirs, untouched


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_unknown_create_outcome_keeps_the_physical_file(mode):
    """Retries exhausted on the create AND on the verification read: the
    znode may have landed, so the physical file must survive — a dangling
    name->FID mapping is worse than an orphaned physical file — and the
    error is still reported (at the next flush, for a write-behind
    client)."""
    rig = Rig(mode)
    rig.mds.script[("create", "/x")] = ConnectionLossError("/x")
    rig.mds.script[("get", "/x")] = ConnectionLossError("/x")
    assert rig.outcome("create", "/x") == EIO
    assert rig.files() == 1
    if mode == "async":
        assert rig.client.wblog.stats["rejected"] == 1


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_provably_absent_create_rolls_the_physical_file_back(mode):
    """The counterpart: the verification read answers NoNode, so nothing
    points at the physical file and it is removed."""
    rig = Rig(mode)
    rig.mds.script[("create", "/x")] = ConnectionLossError("/x")
    assert rig.outcome("create", "/x") == EIO
    assert rig.files() == 0
