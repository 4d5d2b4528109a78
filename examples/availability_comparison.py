#!/usr/bin/env python
"""Availability under metadata-server failure: DUFS/ZooKeeper vs Lustre.

The paper's §IV-I argues the decentralized layer improves reliability: a
ZooKeeper ensemble keeps serving while a majority is alive, whereas a
Lustre MDS failure stalls *all* metadata until the standby takes over.
This experiment measures both service gaps directly: a client issues one
metadata op every 10 ms while a declarative :class:`ChaosSchedule` injects
the failure, and we report how long the op stream stalled.

Run:  python examples/availability_comparison.py
"""

from repro.chaos import ChaosEngine, ChaosSchedule
from repro.core import build_dufs_deployment
from repro.errors import FSError
from repro.models.params import (FaultToleranceParams, LustreParams,
                                 SimParams, ZKParams)
from repro.pfs.lustre import build_lustre
from repro.sim import Cluster


def measure_gaps(sim, completions):
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    return max(gaps) if gaps else 0.0


def op_stream(cluster, client, completions):
    yield from client.mkdir("/d")
    for i in range(600):
        try:
            yield from client.create(f"/d/f{i}")
            completions.append(cluster.sim.now)
        except FSError:
            pass
        yield cluster.sim.timeout(0.01)


def lustre_failover_gap():
    fault = FaultToleranceParams.backend(request_timeout=0.5, max_retries=4)
    params = LustreParams(fault=fault, failover_takeover_delay=2.0)
    cluster = Cluster(seed=1)
    node = cluster.add_node("client")
    fs = build_lustre(cluster, "ha", params=params, with_standby=True)
    cli = fs.client(node)
    completions = []

    schedule = ChaosSchedule().failover(1.5, "fs")

    def on_event(spec, resolved):
        print("   [chaos] primary MDS crashes; standby takes over "
              f"after {params.failover_takeover_delay}s")

    engine = ChaosEngine(cluster, schedule, resolve=lambda s: fs,
                         on_event=on_event)
    engine.start()
    node.spawn(op_stream(cluster, cli, completions))
    cluster.sim.run(until=10.0)
    return measure_gaps(cluster.sim, completions), len(completions)


def dufs_zk_failover_gap():
    params = SimParams()
    params.zk = ZKParams(failure_detection=True, ping_interval=0.1,
                         ping_timeout=0.3, election_tick=0.05)
    dep = build_dufs_deployment(n_zk=5, n_backends=2, n_client_nodes=2,
                                backend="local", params=params,
                                co_locate_zk=False,
                                zk_request_timeout=0.4, zk_max_retries=10)
    dep.cluster.sim.run(until=1.0)  # settle
    mount = dep.mounts[0]
    completions = []

    schedule = ChaosSchedule().crash(1.5, "zk:leader")

    def resolve(symbol):
        leader = next(s for s in dep.ensemble.servers if s.role == "leading")
        return leader.node

    def on_event(spec, resolved):
        leader = next(s for s in dep.ensemble.servers if s.role == "leading")
        print(f"   [chaos] ZooKeeper LEADER zk{leader.sid} crashes; "
              "the ensemble re-elects")

    engine = ChaosEngine(dep.cluster, schedule, resolve=resolve,
                         on_event=on_event)
    engine.start()
    dep.client_nodes[0].spawn(op_stream(dep.cluster, mount, completions))
    dep.cluster.sim.run(until=11.0)
    return measure_gaps(dep.cluster.sim, completions), len(completions)


def main():
    print("-- Lustre: primary MDS crash, active/standby failover --")
    gap, done = lustre_failover_gap()
    print(f"   longest metadata stall: {gap * 1000:,.0f} ms "
          f"({done} ops completed)\n")

    print("-- DUFS: ZooKeeper LEADER crash, quorum re-election --")
    gap2, done2 = dufs_zk_failover_gap()
    print(f"   longest metadata stall: {gap2 * 1000:,.0f} ms "
          f"({done2} ops completed)\n")

    print(f"ZooKeeper's quorum failover is {gap / max(gap2, 1e-9):.1f}x "
          "shorter than the MDS standby takeover — and a *follower* crash "
          "(the common case, 4 of 5 servers) costs DUFS nothing at all, "
          "while Lustre has only the one active MDS to lose.")


if __name__ == "__main__":
    main()
