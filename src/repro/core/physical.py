"""The physical side of a DUFS mount (paper Fig. 3 steps C/D, §IV-F/G/I):
a FID maps by ``MD5(FID) mod N`` to a back-end and a hash-directory path.
:class:`PhysicalFiles` owns all a client instance keeps of it: the map and
the degraded back-ends, the hash-directory chain, making and unmaking
files, and one crash hook with one list of the unnamed files it leaves,
whichever write mode the mount runs.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..errors import EEXIST, EIO, FSError
from ..pfs.base import DEFAULT_FILE_MODE
from ..sim.node import Node, Outcome
from .fid import FIDGenerator
from .mapping import MappingFunction, physical_dirs, physical_path, \
    shared_chain

#: The mode of a spare's physical file: the one a create asks for by default.
FILE_MODE = DEFAULT_FILE_MODE & 0o7777


class PhysicalFiles:
    """The back-end side of one DUFS client instance. ``layout`` is read
    when used, never copied: the layout ablation switches it after the
    deployment is built. A synchronous mount alone keeps spares; a
    write-behind one (``behind``) reclaims inline. ``hints`` is off beside
    the coherent cache."""

    def __init__(self, node: Node, backends: List, mapping: MappingFunction,
                 client_id: Optional[int], hints: bool, behind: bool):
        if mapping.n_backends != len(backends):
            raise ValueError("mapping size != number of back-ends")
        self.node, self.backends, self.mapping = node, backends, mapping
        self.layout = "amortized"
        self.fidgen = FIDGenerator(client_id)
        self.degraded: set = set()
        # Per back-end: hash directories made or found; each one in flight
        # -> the Event its call fires when done.
        self._known_dirs: List[set] = [set() for _ in backends]
        self._making: List[dict] = [{} for _ in backends]
        self._fids: dict = {}   # FID hints: path -> FID made there
        self._hints = hints
        # Spares: FID -> the process making its file, oldest first. Each
        # create until the op runner has run it: FID -> the Event that
        # fires once its file is made (its spare's process, or the one
        # the drain owes), or None when the op runner makes it.
        self._spares: Optional[dict] = None if behind else {}
        self._creating: dict = {}
        # Reclaims: the FID of each file whose name is going or gone, not
        # yet unlinked; caller -> its reclaim process.
        self._reclaims: set = set()
        self._paced: dict = {}
        self._lost: List[int] = []  # FIDs of the files a crash cut off
        node.on_crash(self._on_crash)
        for b in range(len(backends)):
            node.shielded(self._mount(b), "dufs-mount")

    # -- crash and residue ---------------------------------------------------
    def _on_crash(self) -> None:
        """The one crash rule: hints and the reclaims' pacing die with the
        node; the files it owns become ``_lost``."""
        self._fids.clear()
        self._paced.clear()
        self._lost += self.residue()[0]
        self._creating.clear()
        self._reclaims.clear()
        if self._spares:
            self._spares.clear()

    def residue(self) -> Tuple[List[int], List[int]]:
        """The FIDs of the unnamed files this mount may leave, in the
        auditor's two classes: the files it owns (spares, creates and
        reclaims in flight, in either write mode) and those a crash cut
        off."""
        return [*(self._spares or ()), *self._creating, *self._reclaims], \
            self._lost

    # -- the map and degraded mode -------------------------------------------
    def locate(self, fid: int) -> Tuple[int, str]:
        """Steps C/D of Fig. 3: deterministic mapping, physical path."""
        return self.mapping.backend_for(fid), physical_path(fid, self.layout)

    def mark_backend_down(self, backend: int) -> None:
        """Degraded mode (§IV-I): only the FIDs mapped to ``backend`` fail
        (EIO); directory/symlink ops and other back-ends keep working."""
        self.degraded.add(backend)

    def mark_backend_up(self, backend: int) -> None:
        self.degraded.discard(backend)

    def _require_up(self, backend: int, path: Optional[str] = None) -> None:
        if backend in self.degraded:
            raise FSError(EIO, path, f"back-end {backend} unavailable "
                                     "(degraded mode)")

    def _owed(self, fid: int):
        """The one owed-file check: the Event of ``fid``'s file while the
        drain still owes it, else None."""
        owed = self._creating.get(fid)
        return None if owed is None or owed.triggered else owed

    def call(self, fid: int, method: str, *args) -> Generator:
        """Every access to ``fid``'s file: EIO on a degraded back-end
        instead of a hang. One on a file the drain owes waits for it,
        except a stat, which answers None (the pending create is the
        answer)."""
        owed = self._owed(fid)
        if owed is not None and method == "stat":
            return None
        backend, ppath = self.locate(fid)
        self._require_up(backend)
        if owed is not None:
            yield owed
        op = getattr(self.backends[backend], method)
        return (yield from op(ppath, *args))

    # -- the chain -----------------------------------------------------------
    def _make_dirs(self, backend: int, dirs: List[str]) -> Generator:
        """mkdir each of ``dirs`` not yet known on ``backend``. One that
        another call is making (the mount's chain included) is joined, not
        sent again: a call enters all it sends under one Event."""
        known, making = self._known_dirs[backend], self._making[backend]
        mine = [d for d in dirs if d not in known and d not in making]
        done = self.node.sim.event() if mine else None
        for d in mine:
            making[d] = done
        try:
            for d in dirs:
                if d not in known and making.get(d, done) is not done:
                    yield making[d]     # joined: its call made it, or not
                if d not in known:
                    try:
                        self._require_up(backend)
                        yield from self.backends[backend].mkdir(d)
                    except FSError as exc:
                        if exc.err != EEXIST:
                            raise
                    known.add(d)
        finally:
            for d in mine:
                del making[d]
            if mine:
                done.succeed()

    def _mount(self, backend: int) -> Generator:
        """The mount's process: the chain all FIDs of this instance share,
        under the layout when it runs. A failure is the first create's."""
        yield from self._make_dirs(
            backend, shared_chain(self.fidgen.client_id, self.layout))

    # -- making and unmaking files -------------------------------------------
    def new_fid(self, path: str, mode: int) -> Generator:
        """A new file's FID, entered as a create in flight. A synchronous
        mount's default-mode create takes the oldest spare (waiting while
        it is made) and starts the next, so the pool never outgrows the
        peak of concurrent creates. Any other create, or one whose spare
        failed or sits on a degraded back-end, gets a fresh FID."""
        spares = self._spares if mode == FILE_MODE else None
        fid = next(iter(spares or ()), None)
        if spares is None or fid is not None \
                and self.mapping.backend_for(fid) in self.degraded:
            return self._fresh_fid(path)
        if fid is not None:
            made = spares.pop(fid)
            self._creating[fid] = None      # its spare's make must not skip
            if (yield made) == Outcome():
                self._creating[fid] = made
            else:
                del self._creating[fid]     # it made no file
                fid = None
        fid = self._fresh_fid(path) if fid is None else fid
        spare = self.fidgen.next()
        spares[spare] = self.node.shielded(self.make(spare, FILE_MODE),
                                           "dufs-spare")
        return fid

    def _fresh_fid(self, path: str) -> int:
        """A FID whose file the op runner makes: on a write-behind mount,
        under the Event the drain then owes."""
        fid = self.fidgen.next()
        self._require_up(self.mapping.backend_for(fid), path)
        self._creating[fid] = None if self._spares is not None \
            else self.node.sim.event()
        return fid

    def settle(self, fid: int) -> None:
        """The op runner has run the create of ``fid``: it landed, was
        rolled back, or nobody can tell."""
        self._creating.pop(fid, None)   # a crash cleared it already

    def hint(self, path: str, fid: int) -> None:
        """The create of ``fid`` at ``path`` returned to its caller."""
        if self._hints:
            self._fids[path] = fid

    def make(self, fid: int, mode: int) -> Generator:
        """Steps C/D of Fig. 3 unless its spare made the file: the chain,
        then the create, then the Event the drain owes fires. Returns the
        FSError when the file was not made."""
        made = self._creating.get(fid)
        if made is not None and made.triggered:
            return None                     # its spare made it
        backend, ppath = self.locate(fid)
        try:
            yield from self._make_dirs(backend,
                                       physical_dirs(fid, self.layout))
            self._require_up(backend)
            yield from self.backends[backend].create(ppath, mode)
            err = None
        except FSError as exc:
            err = exc
        if made is not None:
            made.succeed()
        return err

    def unlink(self, fid: int) -> Generator:
        """Best effort: a failure leaves an orphan, not an error."""
        try:
            yield from self.call(fid, "unlink")
        except FSError:
            pass

    def unname(self, fid: int, path: str) -> None:
        """``path``, the name of ``fid``'s file, is about to go: fail now
        (EIO) on a degraded back-end, else hold the FID as a reclaim in
        flight until :meth:`reclaim` settles it."""
        self._require_up(self.mapping.backend_for(fid), path)
        self._reclaims.add(fid)

    def reclaim(self, fid: int, landed: bool = True) -> Generator:
        """The delete of ``fid``'s name settled. If it landed, unlink the
        file: inline in a write-behind drain (the op is in flight until
        it returns), else in a process of its own after the caller's
        previous one, so a back-end slower than the namespace still paces
        each caller."""
        if not landed:
            self._reclaims.discard(fid)
            return
        self._reclaims.add(fid)
        if self._spares is None:
            yield from self._reclaimed(fid)
            return
        caller = self.node.sim.active
        pending = self._paced.get(caller)
        if pending is not None:
            yield pending
        self._paced[caller] = self.node.shielded(
            self._reclaimed(fid, caller), "dufs-reclaim")

    def _reclaimed(self, fid: int, caller=None) -> Generator:
        yield from self.unlink(fid)
        self._reclaims.discard(fid)
        self._paced.pop(caller, None)

    # -- FID hints -----------------------------------------------------------
    def take_hint(self, path: str) -> Optional[int]:
        """Spend ``path``'s FID hint: None when there is none or the drain
        still owes its file (no back-end stat to overlap)."""
        fid = self._fids.pop(path, None)
        if fid is not None and self._creating \
                and self._owed(fid) is not None:
            return None
        return fid

    def forget(self, *paths: str) -> None:
        """Drop the FID hints of ``paths``: their names went."""
        for path in paths:
            self._fids.pop(path, None)
