"""Fault-tolerance building blocks shared by the sim and live substrates.

The failure-path counterpart of :mod:`repro.core.retrieval`: pure-Python,
clock-injectable policies — :class:`Deadline` budgets,
:class:`RetryPolicy` backoff with seeded jitter, per-server
:class:`CircuitBreaker` admission, :class:`VirtualQueueAdmission` on the
database path — plus the declarative :class:`FaultPlan` /
:class:`FaultSchedule` vocabulary that scripts an outage identically for
the live stack's fault tests and the failover experiment (sim).  No I/O
happens here; drivers decide when to sleep and what counts as "now".
"""

from repro.resilience.admission import VirtualQueueAdmission
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultPlan, FaultSchedule
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import RetryPolicy

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultSchedule",
    "ResiliencePolicy",
    "RetryPolicy",
    "VirtualQueueAdmission",
]
