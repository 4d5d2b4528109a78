#!/usr/bin/env python
"""The paper's future work (§VII): consistent hashing for elastic mounts.

The production mapping ``MD5(fid) mod N`` is perfectly balanced but cannot
change N without relocating nearly every file. This example runs DUFS with
the consistent-hashing mapping, populates files, then *adds a back-end
mount* to the mapping and counts the files it would relocate: only
~1/(N+1) of them.

Run:  python examples/elastic_backends.py
"""

from collections import Counter

from repro.core import build_dufs_deployment


def main():
    n_files = 300
    dep = build_dufs_deployment(n_zk=3, n_backends=3, n_client_nodes=2,
                                backend="local", mapping_strategy="consistent")
    mount = dep.mounts[0]
    client = dep.clients[0]

    def populate():
        yield from mount.mkdir("/data")
        for i in range(n_files):
            yield from mount.create(f"/data/f{i:04d}")
        ok = 0
        for i in range(n_files):
            st = yield from mount.stat(f"/data/f{i:04d}")
            ok += st.is_file
        return ok

    ok = dep.call(lambda: populate())
    print(f"virtual files reachable: {ok}/{n_files}")
    client_id = client.files.fidgen.client_id
    fids = [((client_id << 64) | i) for i in range(n_files)]
    before = {fid: client.files.mapping.backend_for(fid) for fid in fids}
    load = Counter(before.values())
    print(f"{n_files} files over 3 mounts (consistent hashing): "
          f"{dict(sorted(load.items()))}")

    # ---- grow the mapping by one mount ----------------------------------
    client.files.mapping.add_backend()
    moved = sum(client.files.mapping.backend_for(fid) != before[fid]
                for fid in fids)
    print(f"\nadding back-end mount #3: files that would relocate: "
          f"{moved}/{n_files} ({moved / n_files:.1%}; mod-N would move ~75%)")


if __name__ == "__main__":
    main()
