"""Discrete-event engine: a time-ordered heap of callbacks.

Minimal by design — the cluster experiments schedule millions of events, so
the hot path is ``heappush``/``heappop`` of plain tuples.  Determinism:
events at equal timestamps fire in scheduling order (a monotone sequence
number breaks ties), so runs are exactly reproducible.

All times are float seconds from epoch 0, and the loop's clock only moves
forward.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

from repro.errors import SimulationError

Callback = Callable[..., None]


class EventLoop:
    """A discrete-event simulation loop; ``now`` is its clock."""

    def __init__(self) -> None:
        #: current simulation time in seconds
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callback, Tuple[Any, ...]]] = []
        self._sequence = itertools.count()

    def schedule_at(self, when: float, callback: Callback, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time *when*.

        Raises:
            SimulationError: *when* is before the current time.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, clock is at {self.now}"
            )
        entry = (when, next(self._sequence), callback, args)
        heapq.heappush(self._heap, entry)

    def run_until(self, deadline: float) -> None:
        """Dispatch every event with timestamp <= *deadline*, then advance
        the clock to *deadline*.

        Raises:
            SimulationError: *deadline* is in the past.
        """
        if deadline < self.now:
            raise SimulationError(
                f"clock cannot move backwards: {deadline} < {self.now}"
            )
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            when, _seq, callback, args = heapq.heappop(heap)
            self.now = when
            callback(*args)
        self.now = deadline
