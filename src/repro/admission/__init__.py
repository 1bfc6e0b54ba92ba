"""Admission control, overload shedding, and circuit breaking.

The ROADMAP's production-scale north star means the system must survive
offered load far beyond its capacity.  This package puts an
:class:`AdmissionController` in front of the shared resources — channel
bandwidth, shared device pools, the disk scheduler — and arbitrates
requests by priority class and QoS contract: admit, queue with a
deadline, degrade to a contract floor, shed, or preempt.  Faulting
components are wrapped in :class:`CircuitBreaker` instances so overload
never queues behind a dead resource.  :class:`OverloadWorkload` and the
named scenarios in :mod:`repro.admission.scenarios` drive seeded
multi-client overload experiments (``python -m repro overload``).
"""

from repro.admission.breaker import BreakerState, CircuitBreaker
from repro.admission.controller import (
    AdmissionController,
    BatchVerdict,
    Priority,
    QoSContract,
)
from repro.admission.workload import OverloadWorkload

__all__ = [
    "AdmissionController",
    "BatchVerdict",
    "BreakerState",
    "CircuitBreaker",
    "OverloadWorkload",
    "Priority",
    "QoSContract",
]
