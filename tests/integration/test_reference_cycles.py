"""A finished process, condition or reply is freed by its refcount.

The kernel holds no reference cycles (docs/MODEL.md §12, cut 6): a
process or condition binds its callback afresh for each wait instead of
storing it, and a timed call leaves no timer behind. Whatever a run
leaves to the cyclic garbage collector lands in ``gc.garbage`` under
``DEBUG_SAVEALL``; none of it may be a kernel object.
"""

import gc

from repro.core import build_dufs_deployment
from repro.sim.core import AllOf, Condition, Process
from repro.sim.rpc import _Response


def test_a_deployment_run_leaves_no_kernel_object_to_the_cyclic_gc():
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=3,
                                backend="local")
    sim = dep.cluster.sim

    def work(client, k):
        yield from client.mkdir(f"/d{k}")
        for i in range(5):
            yield from client.create(f"/d{k}/f{i}")
            yield from client.stat(f"/d{k}/f{i}")
            yield from client.readdir(f"/d{k}")

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        procs = [node.spawn(work(client, k)) for k, (client, node)
                 in enumerate(zip(dep.clients, dep.client_nodes))]
        sim.run(until=AllOf(sim, procs))
        sim.run(until=sim.now + 10.0)   # every call's timeout has passed
        gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, (Process, Condition, _Response))})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
