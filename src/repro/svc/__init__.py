"""repro.svc — the service kernel every server stack runs on.

Layers on :mod:`repro.sim.rpc`: declarative handler registration
(:class:`Service`), group-commit write batching (:class:`Batcher`), and a
structured per-op trace bus (:class:`TraceBus`) feeding unified
service-time metrics tagged by deployment, endpoint, and method.
"""

from .batch import Batcher
from .kernel import Service, instrument_client
from .trace import NULL_BUS, NullBus, OpTrace, TraceBus

__all__ = [
    "Batcher", "NULL_BUS", "NullBus", "OpTrace", "Service", "TraceBus",
    "instrument_client",
]
