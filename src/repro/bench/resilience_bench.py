"""Overload / retry-storm campaign for the resilience layer.

The scenario every resilience mechanism in ``repro.resilience`` exists
for: an open-loop client population offers metadata reads at a multiple
of one ZooKeeper server's CPU capacity. Past the knee the legacy stack is
metastable — queue delay exceeds the client RPC timeout, every timeout
spawns retries, retries multiply the offered load, and the server burns
all of its CPU producing replies nobody is waiting for. Goodput (replies
that reach a still-waiting caller) collapses to near zero and stays
there.

With the resilience policy on — deadline propagation (the server sheds
queued work whose caller must have given up), a token-bucket retry
budget (drained buckets stop the amplification), and per-endpoint
circuit breakers (clients fast-fail during collapse and probe their way
back) — the same overload degrades instead: the server spends its CPU
only on live requests and goodput holds near capacity.

The committed gate (``benchmarks/BENCH_resilience.json``): at 2x the
saturation load, resilience-on goodput must be >= 1.5x resilience-off.
Both arms run the identical cluster, timeout/retry policy and offered
load; only the request-lifecycle fields of the fault policy differ.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..models.params import FaultToleranceParams, ZKParams
from ..sim.node import Cluster
from ..svc import TraceBus
from ..zk.client import ZKClient
from ..zk.ensemble import build_ensemble

#: The acceptance gate: resilience-on goodput >= FLOOR x off, at 2x load.
GATE_LOAD = "2.0"
GOODPUT_FLOOR = 1.5

_SCALES = {
    # scale -> (duration seconds, client count, load multiples swept)
    "quick": (4.0, 4, (0.5, 2.0)),
    "medium": (8.0, 6, (0.5, 2.0)),
    "full": (12.0, 8, (0.5, 1.0, 2.0, 3.0)),
}

#: One metadata read costs this much server CPU (inflated ~5x so a single
#: core saturates at a few hundred ops/s and the campaign stays small).
READ_CPU = 2e-3

#: Shared fault policy for BOTH arms: a short RPC timeout against a
#: deliberately deep queue plus eager retries — the storm recipe.
FAULT = dict(request_timeout=0.08, max_retries=8, backoff_base=0.02,
             backoff_cap=0.2, op_budget=1.0)

#: The resilience-on arm: deadlines + retry budget + breakers (hedging
#: stays off — duplicating reads into an overloaded server adds load).
RESILIENCE_ON = dict(deadline_propagation=True, retry_budget=10.0,
                     retry_refill=0.1, breaker_enabled=True,
                     breaker_threshold=5, breaker_cooldown=0.25)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _run_arm(load: float, resilient: bool, duration: float,
             n_clients: int) -> Dict:
    """One (load multiple, arm) cell: open-loop reads against one server."""
    cluster = Cluster()
    bus = TraceBus()
    server_node = cluster.add_node("zkserver", cores=1)
    ensemble = build_ensemble(cluster, [server_node], 1,
                              params=ZKParams(read_cpu=READ_CPU), bus=bus)
    fault = FaultToleranceParams(**FAULT,
                                 **(RESILIENCE_ON if resilient else {}))
    client_nodes = [cluster.add_node(f"client{i}")
                    for i in range(n_clients)]
    clients = [ZKClient(node, ensemble.endpoints, fault=fault,
                        name=f"load{i}")
               for i, node in enumerate(client_nodes)]

    def setup():
        yield from clients[0].connect()
        yield from clients[0].create("/f", b"x")
        for zkc in clients[1:]:
            yield from zkc.connect()

    cluster.sim.run(until=client_nodes[0].spawn(setup()))
    capacity = 1.0 / READ_CPU                       # one core of reads
    rate = capacity * load
    interval = n_clients / rate                     # per-client spacing
    t_start = cluster.sim.now
    stats = {"issued": 0, "ok": 0, "err": 0}
    latencies: List[float] = []

    def one_op(zkc):
        t0 = cluster.sim.now
        stats["issued"] += 1
        try:
            yield from zkc.exists("/f")
            stats["ok"] += 1
            latencies.append(cluster.sim.now - t0)
        except Exception:
            stats["err"] += 1

    def arrivals(node, zkc, offset):
        yield cluster.sim.timeout(offset)
        end = t_start + duration
        while cluster.sim.now < end:
            node.spawn(one_op(zkc))
            yield cluster.sim.timeout(interval)

    for i, (node, zkc) in enumerate(zip(client_nodes, clients)):
        # Stagger the streams so arrivals interleave evenly.
        node.spawn(arrivals(node, zkc, offset=i * interval / n_clients))
    # Tail: let in-flight ops resolve (each is bounded by op_budget).
    cluster.sim.run(until=t_start + duration + FAULT["op_budget"] + 0.5)

    key = "zk/zk0.read"
    return {
        "load": load,
        "resilient": resilient,
        "offered_ops_s": rate,
        "issued": stats["issued"],
        "ok": stats["ok"],
        "err": stats["err"],
        "goodput_ops_s": stats["ok"] / duration,
        "success_rate": stats["ok"] / stats["issued"] if stats["issued"]
        else 0.0,
        "latency_p95": _percentile(latencies, 0.95),
        "server": {
            "served": bus.ops.get(key),
            "expired": bus.expired.get(key),
        },
        "clients": {
            "retry_tokens_spent": sum(z.retry.budget.spent for z in clients),
            "retries_denied": sum(z.retry.budget.denied for z in clients),
            "breaker_trips": sum(z.breakers.trips() for z in clients),
            "breaker_fastfails": sum(z.breakers.fastfails for z in clients),
        },
    }


def run(scale: str = "quick") -> Dict:
    """Run the off/on sweep; returns a JSON-ready result document."""
    duration, n_clients, loads = _SCALES[scale]
    capacity = 1.0 / READ_CPU
    runs: Dict[str, Dict[str, Dict]] = {}
    for load in loads:
        runs[f"{load:g}"] = {
            "off": _run_arm(load, False, duration, n_clients),
            "on": _run_arm(load, True, duration, n_clients),
        }
    gate_cell = runs.get(GATE_LOAD) or runs[max(runs, key=float)]
    off = gate_cell["off"]["goodput_ops_s"]
    on = gate_cell["on"]["goodput_ops_s"]
    return {
        "benchmark": "resilience_overload",
        "scale": scale,
        "duration": duration,
        "n_clients": n_clients,
        "capacity_ops_s": capacity,
        "fault": dict(FAULT),
        "resilience_on": dict(RESILIENCE_ON),
        "loads": runs,
        "gate": {
            "load": GATE_LOAD,
            "goodput_off": off,
            "goodput_on": on,
            "on_over_off": on / off if off else float("inf"),
            "floor": GOODPUT_FLOOR,
        },
    }


def render(doc: Dict) -> str:
    lines = [
        f"resilience overload campaign (scale={doc['scale']}, "
        f"capacity {doc['capacity_ops_s']:,.0f} reads/s,"
        f" {doc['n_clients']} open-loop clients x {doc['duration']:g}s):",
        f"  {'load':>5} {'arm':>4} {'offered/s':>10} {'goodput/s':>10} "
        f"{'ok%':>6} {'p95(ms)':>8} {'served':>7} {'expired':>8} "
        f"{'denied':>7} {'trips':>6}",
    ]
    for load in sorted(doc["loads"], key=float):
        for arm in ("off", "on"):
            r = doc["loads"][load][arm]
            lines.append(
                f"  {load:>4}x {arm:>4} {r['offered_ops_s']:>10,.0f} "
                f"{r['goodput_ops_s']:>10,.0f} "
                f"{r['success_rate'] * 100:>5.1f}% "
                f"{r['latency_p95'] * 1e3:>8.1f} "
                f"{r['server']['served']:>7} {r['server']['expired']:>8} "
                f"{r['clients']['retries_denied']:>7} "
                f"{r['clients']['breaker_trips']:>6}")
    g = doc["gate"]
    lines.append(
        f"  gate: goodput at {g['load']}x load, on/off = "
        f"{g['on_over_off']:.2f}x (floor {g['floor']}x)")
    return "\n".join(lines)


def tracked(doc: Dict) -> Dict[str, float]:
    """Goodput of every (load, arm) cell."""
    return {f"{arm} @ {load}x": cell["goodput_ops_s"]
            for load, arms in doc.get("loads", {}).items()
            for arm, cell in arms.items()}


def floors(doc: Dict) -> List[Tuple[str, float, float]]:
    gate = doc["gate"]
    return [(f"resilience-on/off goodput at {gate['load']}x load",
             gate["on_over_off"], GOODPUT_FLOOR)]
