"""Workload synthesis: Zipf popularity, diurnal traces, closed-loop users."""

from repro.workload.analysis import summarize
from repro.workload.trace import slot_counts

__all__ = [
    "slot_counts",
    "summarize",
]
