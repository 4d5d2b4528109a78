"""repro.svc — the service kernel every server stack runs on.

Layers on :mod:`repro.sim.rpc`: declarative handler registration with
per-method metadata (:class:`OpSpec`), pluggable admission queues,
group-commit write batching (:class:`Batcher`), and a structured per-op
trace bus (:class:`TraceBus`) feeding unified queue-wait / service-time
metrics tagged by deployment, endpoint, and method.
"""

from .batch import Batcher
from .kernel import OpSpec, Service, instrument_client
from .queue import (
    AdmissionPolicy,
    AdmissionReject,
    BoundedAdmission,
    DirectAdmission,
)
from .trace import NULL_BUS, NullBus, OpTrace, TraceBus

__all__ = [
    "AdmissionPolicy", "AdmissionReject", "Batcher", "BoundedAdmission",
    "DirectAdmission", "NULL_BUS", "NullBus", "OpSpec", "OpTrace",
    "Service", "TraceBus", "instrument_client",
]
