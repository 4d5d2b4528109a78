"""Reproduction of *"Can a Decentralized Metadata Service Layer benefit
Parallel Filesystems?"* (Meshram et al., IEEE CLUSTER 2011).

The package implements **DUFS** -- a union filesystem layer that merges
multiple parallel-filesystem mounts behind a single POSIX namespace whose
metadata lives in a ZooKeeper-style coordination service -- together with
every substrate the paper's evaluation depends on, all running on a
deterministic discrete-event simulated cluster:

- :mod:`repro.sim` -- the discrete-event kernel (events, processes, CPU /
  disk / network resources, RPC, failure injection).
- :mod:`repro.zk` -- a from-scratch ZooKeeper: znode tree, ZAB atomic
  broadcast, leader election, watches, multi-op transactions.
- :mod:`repro.pfs` -- Lustre-like (single MDS + DLM + OSS) and PVFS2-like
  (handle-partitioned servers) parallel filesystems, plus a local FS.
- :mod:`repro.fuse` -- the userspace-filesystem dispatch layer.
- :mod:`repro.core` -- DUFS itself: FIDs, the deterministic MD5-based
  mapping function, ZooKeeper-backed metadata, and the client operations.
- :mod:`repro.workloads` -- the mdtest-style metadata benchmark.
- :mod:`repro.bench` -- harnesses regenerating every figure of the paper.

Quickstart::

    from repro.core import build_dufs_deployment
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2)
    client = dep.clients[0]
    dep.call(client.mkdir, "/exp")
    dep.call(client.create, "/exp/data.bin")
    print(dep.call(client.stat, "/exp/data.bin"))
"""

from ._version import __version__

__all__ = ["__version__"]
