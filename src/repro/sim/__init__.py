"""Discrete-event simulation substrate (kernel, resources, network, nodes, RPC)."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    EmptySchedule,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .network import Network
from .node import Cluster, Node, Outcome
from .random import RandomStreams
from .resources import Request, Resource, Store
from .rpc import Reply, RemoteError, RpcAgent, RpcTimeout
from .stats import Counter, LatencyRecorder, LatencySummary, percentile

__all__ = [
    "AllOf", "AnyOf", "Condition", "EmptySchedule", "Event", "Interrupt",
    "Process", "SimulationError", "Simulator", "Timeout",
    "Network",
    "Cluster", "Node", "Outcome",
    "RandomStreams",
    "Request", "Resource", "Store",
    "Reply", "RemoteError", "RpcAgent", "RpcTimeout",
    "Counter", "LatencyRecorder", "LatencySummary", "percentile",
]
