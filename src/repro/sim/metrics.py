"""Measurement: time series, percentiles, and slotted recorders.

The paper's plots are all per-slot aggregates: Fig. 5 is a per-slot min/max
load ratio, Fig. 9 groups response times "into 480 slots according to
physical time" and plots the 99.9th percentile, Fig. 10 samples power every
15 seconds.  :class:`SlottedRecorder` is the shared machinery: values are
binned by timestamp into fixed-width slots and each slot reduces to a
percentile on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.errors import ConfigurationError


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile(..., method="linear")`` without requiring the
    inputs to be a numpy array; raises on empty input rather than returning
    NaN, because a silent NaN in a benchmark table hides missing data.
    """
    if not values:
        raise ConfigurationError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ConfigurationError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class TimeSeries:
    """An append-only series of ``(time, value)`` points."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, when: float, value: float) -> None:
        """Append a point; time must be non-decreasing."""
        if self.times and when < self.times[-1]:
            raise ConfigurationError(
                f"time series must be appended in order: {when} < {self.times[-1]}"
            )
        self.times.append(when)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def integrate(self) -> float:
        """Trapezoidal integral of value over time (e.g. W x s -> J)."""
        total = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total += dt * (self.values[i] + self.values[i - 1]) / 2.0
        return total


class SlottedRecorder:
    """Bins samples into fixed-width time slots and reduces per slot.

    Args:
        slot_seconds: slot width (the paper uses 30-minute provisioning
            slots, 480 plot slots, and 15-second power samples — all are
            instances of this with different widths).
        start: time of the left edge of slot 0.
    """

    def __init__(self, slot_seconds: float, start: float = 0.0) -> None:
        if slot_seconds <= 0:
            raise ConfigurationError(
                f"slot_seconds must be > 0, got {slot_seconds}"
            )
        self.slot_seconds = slot_seconds
        self.start = start
        self._slots: Dict[int, List[float]] = {}

    def slot_of(self, when: float) -> int:
        """Slot index containing time *when*."""
        return int((when - self.start) // self.slot_seconds)

    def record(self, when: float, value: float) -> None:
        """Add one sample."""
        self._slots.setdefault(self.slot_of(when), []).append(value)

    def slots(self) -> List[int]:
        """Slot indices that hold at least one sample, ascending."""
        return sorted(self._slots)

    def samples(self, slot: int) -> List[float]:
        """Raw samples in *slot* (empty list when none)."""
        return list(self._slots.get(slot, []))

    def series(self, pct_rank: float) -> TimeSeries:
        """The *pct_rank*-th percentile of every non-empty slot, one point
        at the slot midpoint."""
        out = TimeSeries()
        for slot in self.slots():
            midpoint = self.start + (slot + 0.5) * self.slot_seconds
            out.append(midpoint, percentile(self._slots[slot], pct_rank))
        return out


def min_max_ratio(loads: Iterable[float]) -> float:
    """Fig. 5 metric: ``min(load) / max(load)`` over active servers.

    1.0 is perfectly balanced; 0.0 means at least one server sat idle while
    another worked.  Empty input raises; an all-zero slot returns 1.0 (no
    load is trivially balanced).
    """
    values = list(loads)
    if not values:
        raise ConfigurationError("min_max_ratio of empty load set")
    peak = max(values)
    if peak == 0:
        return 1.0
    return min(values) / peak
