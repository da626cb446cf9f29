"""Simulated time.

All times in the simulation are float seconds from epoch 0.  The clock only
moves forward; components take ``now`` as an argument (pure functions of
time) or hold a reference to a :class:`SimClock` owned by the event loop.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SimClock:
    """A monotonically non-decreasing simulation clock, from time 0."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock to *when*.

        Raises:
            SimulationError: *when* is in the past (events must be processed
                in timestamp order).
        """
        if when < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {when} < {self._now}"
            )
        self._now = when

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now})"
