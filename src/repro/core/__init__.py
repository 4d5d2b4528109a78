"""DUFS — the Distributed Union File System (the paper's contribution).

DUFS merges N independent parallel-filesystem mounts into one virtual
POSIX namespace:

- the **directory tree and filename → FID mapping** live in ZooKeeper
  (:mod:`repro.core.metadata`), so directory operations never touch the
  back-end storages;
- each file's contents live on exactly one back-end mount, chosen by the
  **deterministic mapping function** ``MD5(FID) mod N``
  (:mod:`repro.core.mapping`) — no coordination needed to locate data;
- **FIDs** (:mod:`repro.core.fid`) are 128-bit client-unique identifiers
  (64-bit client id ‖ 64-bit creation counter), so file contents never
  move or rename when the virtual name changes.

:class:`repro.core.client.DUFSClient` implements the full operation set of
the paper's prototype; :func:`repro.core.fs.build_dufs_deployment`
assembles a complete simulated deployment (ZooKeeper ensemble co-located
with client nodes + back-end filesystems + FUSE mounts).

Submodules are resolved lazily (PEP 562): importing a leaf like
:mod:`repro.core.paths` from the mds/pfs/chaos layers must not drag in
the client/deployment modules (which import those layers back).
"""

from importlib import import_module

_EXPORTS = {
    "DUFSClient": ".client",
    "FID_BITS": ".fid", "FIDGenerator": ".fid", "fid_hex": ".fid",
    "DUFSDeployment": ".fs", "build_dufs_deployment": ".fs",
    "MappingFunction": ".mapping", "physical_dirs": ".mapping",
    "physical_path": ".mapping",
    "MDCache": ".mdcache", "aggregate_counters": ".mdcache",
    "DirPayload": ".metadata", "FilePayload": ".metadata",
    "SymlinkPayload": ".metadata", "decode_payload": ".metadata",
    "PendingOp": ".wblog", "WriteBehindLog": ".wblog",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value        # cache: resolve each name once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
