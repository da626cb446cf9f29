"""Fault-tolerance building blocks shared by the sim and live substrates.

The failure-path counterpart of :mod:`repro.core.retrieval`: pure-Python,
clock-injectable policies — :class:`Deadline` budgets,
:class:`RetryPolicy` backoff with seeded jitter, per-server
:class:`CircuitBreaker` admission, the simulated clients'
:class:`RetryBudget`, DB-path admission controllers — plus the
declarative :class:`FaultPlan` / :class:`FaultSchedule` vocabulary that
scripts an outage identically for the live stack's fault tests and the
failover experiment (sim).  No I/O happens here; drivers decide when to
sleep and what counts as "now".
"""

from repro.resilience.admission import AdmissionController, VirtualQueueAdmission
from repro.resilience.breaker import BreakerSnapshot, BreakerState, CircuitBreaker
from repro.resilience.budget import RetryBudget
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultPlan, FaultSchedule
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import RetryPolicy

__all__ = [
    "AdmissionController",
    "BreakerSnapshot",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultSchedule",
    "ResiliencePolicy",
    "RetryBudget",
    "RetryPolicy",
    "VirtualQueueAdmission",
]
