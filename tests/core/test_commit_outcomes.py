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
from repro.errors import EEXIST, EIO, ENOENT, ENOTEMPTY, FSError
from repro.mds import MetadataService
from repro.models.params import AsyncParams
from repro.pfs.localfs import LocalFS
from repro.sim import Cluster
from repro.zk.data import ZnodeStat
from repro.zk.errors import (ConnectionLossError, NoNodeError,
                             NodeExistsError, NotEmptyError)

RPC = 1e-4          # simulated round trip of the stub


class StubMDS(MetadataService):
    """Flat in-memory namespace with scripted faults.

    ``script[(method, path)]`` holds one behaviour for the next such call:
    ``"lost"`` applies the mutation, then raises what the retried
    duplicate would (``last_retries = 1``); ``"vanish"`` has somebody else
    remove the node first; a ``bytes`` value (``multi`` only) has somebody
    else create the destination with that payload first; an exception
    instance is raised as is (nothing applied, ``last_retries = 0``). A
    ``multi`` is scripted under the path of its first create.
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

    def exists(self, path, watch=None):
        yield from self._enter("exists", path)
        return ZnodeStat() if path in self.nodes else None

    def get_children(self, path, watch=None):
        yield from self._enter("get_children", path)
        return [p[len(path) + 1:] for p in self.nodes
                if p.startswith(path + "/") and "/" not in p[len(path) + 1:]]

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

    def _apply_atomically(self, ops):
        nodes = dict(self.nodes)
        for op in ops:
            if op.op == "create":
                if op.path in nodes:
                    raise NodeExistsError(op.path)
                nodes[op.path] = op.data
            elif op.path not in nodes:
                raise NoNodeError(op.path)
            elif any(p.startswith(op.path + "/") for p in nodes):
                raise NotEmptyError(op.path)
            else:
                del nodes[op.path]
        self.nodes = nodes

    def multi(self, ops):
        dst = next(op.path for op in ops if op.op == "create")
        fault = yield from self._enter("multi", dst)
        if isinstance(fault, bytes):
            self.nodes[dst] = fault
        self._apply_atomically(ops)
        if fault == "lost":
            self._last_retries = 1
            self._apply_atomically(ops)     # the duplicate: always raises
            raise AssertionError("a duplicate multi cannot apply twice")


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


# -- rename: the one namespace mutation that is a multi -----------------------
FILE_A, FILE_B = FilePayload(0xA), FilePayload(0xB)
#: case -> (namespace before, namespace after ``rename /a /b`` landed)
RENAMES = {
    "file": ({"/a": FILE_A}, {"/b": FILE_A}),
    "file-over-file": ({"/a": FILE_A, "/b": FILE_B}, {"/b": FILE_A}),
    "directory-with-children": (
        {"/a": DirPayload(), "/a/x": FILE_A, "/a/y": DirPayload(),
         "/a/y/z": SymlinkPayload("/t")},
        {"/b": DirPayload(), "/b/x": FILE_A, "/b/y": DirPayload(),
         "/b/y/z": SymlinkPayload("/t")}),
}


def encoded(namespace):
    return {path: payload.encode() for path, payload in namespace.items()}


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("case", [*RENAMES])
def test_rename_whose_reply_was_lost_succeeds(case, mode):
    """The first multi commits, its reply is dropped, the retry's
    duplicate trips over its own work (NodeExists on the destination, or
    NoNode on the source when the destination was overwritten): the
    rename happened, exactly once."""
    before, after = RENAMES[case]
    rig = Rig(mode)
    rig.mds.nodes = encoded(before)
    rig.mds.script[("multi", "/b")] = "lost"
    assert rig.outcome("rename", "/a", "/b") == "ok"
    assert rig.mds.nodes == encoded(after)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_genuinely_colliding_rename_still_answers_its_error(mode):
    """Somebody else creates the destination between our lookup and our
    multi (no retry involved): EEXIST, and nothing moved. Likewise a
    non-empty target directory is ENOTEMPTY, retried or not."""
    rig = Rig(mode)
    rig.mds.nodes = encoded({"/a": FILE_A})
    rig.mds.script[("multi", "/b")] = FILE_B.encode()
    assert rig.outcome("rename", "/a", "/b") == EEXIST
    assert rig.mds.nodes == encoded({"/a": FILE_A, "/b": FILE_B})

    rig = Rig(mode)
    busy = {"/a": DirPayload(), "/b": DirPayload(), "/b/kept": FILE_B}
    rig.mds.nodes = encoded(busy)
    assert rig.outcome("rename", "/a", "/b") == ENOTEMPTY
    assert rig.mds.nodes == encoded(busy)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_rename_with_unknown_outcome_is_eio(mode):
    rig = Rig(mode)
    rig.mds.nodes = encoded({"/a": FILE_A})
    rig.mds.script[("multi", "/b")] = ConnectionLossError("/b")
    assert rig.outcome("rename", "/a", "/b") == EIO
