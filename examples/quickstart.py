#!/usr/bin/env python
"""Quickstart: build a small DUFS deployment and use it like a filesystem.

Builds the full simulated stack — a 3-server ZooKeeper ensemble co-located
with 2 client nodes, merging 2 back-end mounts — and runs a handful of
POSIX operations through the FUSE mount, printing what happens at each
layer.

Run:  python examples/quickstart.py
"""

from repro.core import build_dufs_deployment
from repro.core.mapping import physical_path


def main():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local")
    mount = dep.mounts[0]
    client = dep.clients[0]

    def workload():
        print("mkdir /experiments")
        yield from mount.mkdir("/experiments")
        print("mkdir /experiments/run-1")
        yield from mount.mkdir("/experiments/run-1")

        print("create /experiments/run-1/results.csv")
        yield from mount.create("/experiments/run-1/results.csv")
        n = yield from mount.write("/experiments/run-1/results.csv", 0,
                                   b"step,value\n1,3.14\n")
        print(f"  wrote {n} bytes")

        st = yield from mount.stat("/experiments/run-1/results.csv")
        print(f"  stat: file={st.is_file} size={st.st_size}B "
              f"mode={oct(st.st_mode & 0o7777)}")

        st = yield from mount.stat("/experiments")
        print(f"stat /experiments: dir={st.is_dir} nlink={st.st_nlink} "
              f"(answered by ZooKeeper, no back-end contact)")

        print("rename run-1 -> final  (atomic ZooKeeper multi; "
              "no data moves)")
        yield from mount.rename("/experiments/run-1", "/experiments/final")
        data = yield from mount.read("/experiments/final/results.csv", 0, 64)
        print(f"  read back {data!r}")

        entries = yield from mount.readdir("/experiments")
        print(f"readdir /experiments -> {[e.name for e in entries]}")

    dep.call(lambda: workload())

    fid = client.files.fidgen.client_id << 64  # the FID of the file we created
    backend = client.files.mapping.backend_for(fid)
    print()
    print("Where things actually live:")
    print(f"  FID of results.csv       : {fid:032x}")
    print(f"  deterministic mapping    : MD5(fid) mod 2 -> back-end "
          f"#{backend}")
    print(f"  physical path            : "
          f"{physical_path(fid, client.files.layout)}")
    print(f"  znodes in ZooKeeper      : "
          f"{len(dep.ensemble.servers[0].store) - 1}")
    print(f"  files on back-end 0 / 1  : "
          f"{[be.ns.count_files() for be in dep.backends]}")
    print(f"  replicas converged       : {dep.ensemble.converged()}")
    print(f"  DUFS client zk_reads     : {client.stats['zk_reads']}")


if __name__ == "__main__":
    main()
