"""The resolve bench's baseline arm: an emulated kernel-VFS walk with a
cold, bounded dcache in front of a default DUFS client."""

from repro.bench.resolve_bench import ColdDcacheWalk
from repro.core import build_dufs_deployment

DEPTH = 8
CHAIN = "/t0/l0/l1/l2/l3/l4"              # 6 dirs; file below is depth 8


def test_walk_mode_pays_o_depth_rpcs():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend="local", trace=True)
    client = dep.clients[0]

    def build():
        path = ""
        for comp in CHAIN.split("/")[1:]:
            path += f"/{comp}"
            yield from client.mkdir(path)
        yield from client.create(f"{CHAIN}/ckpt")
    dep.cluster.sim.run(until=dep.client_nodes[0].spawn(build()))
    dep.cluster.sim.run(until=dep.cluster.sim.now + 0.1)

    def traced_reads():
        return sum(dep.bus.ops.get(k) for k in dep.bus.keys()
                   if k.startswith("zk/") and k.endswith(".read"))

    walker = ColdDcacheWalk(client, capacity=2)
    before, traced = client.stats["zk_reads"], traced_reads()
    assert dep.call(walker.stat, f"{CHAIN}/ckpt") is not None
    # 7 proper ancestors below the root + the leaf read, minus at most
    # the 2 dcache-resident ones: strictly O(depth), not O(1).
    assert client.stats["zk_reads"] - before >= DEPTH - 2
    assert traced_reads() - traced >= DEPTH - 2
    assert len(walker.dcache) == 2
