"""Discrete-event engine: a time-ordered heap of callbacks.

Minimal by design — the cluster experiments schedule millions of events, so
the hot path is ``heappush``/``heappop`` of plain tuples.  Determinism:
events at equal timestamps fire in scheduling order (a monotone sequence
number breaks ties), so runs are exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock

Callback = Callable[..., None]

_CANCELLED = object()


class EventHandle:
    """Returned by :meth:`EventLoop.schedule`; supports cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: List[Any]) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._entry[2] = _CANCELLED

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is _CANCELLED


class EventLoop:
    """A discrete-event simulation loop over a :class:`SimClock`."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: List[List[Any]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.clock.now

    def schedule_at(self, when: float, callback: Callback, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute time *when*.

        Raises:
            SimulationError: *when* is before the current time.
        """
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule at {when}, clock is at {self.clock.now}"
            )
        entry = [when, next(self._sequence), callback, args]
        heapq.heappush(self._heap, entry)
        return EventHandle(entry)

    def schedule(self, delay: float, callback: Callback, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after *delay* seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.clock.now + delay, callback, *args)

    def __len__(self) -> int:
        """Number of pending (possibly cancelled) events."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or ``None`` when idle."""
        while self._heap and self._heap[0][2] is _CANCELLED:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Dispatch one event; returns False when the queue is empty."""
        while self._heap:
            when, _seq, callback, args = heapq.heappop(self._heap)
            if callback is _CANCELLED:
                continue
            self.clock.advance_to(when)
            callback(*args)
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Dispatch every event with timestamp <= *deadline*, then advance
        the clock to *deadline*."""
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
        self.clock.advance_to(deadline)

    def run(self, max_events: Optional[int] = None) -> int:
        """Dispatch until the queue drains (or *max_events*); returns count."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count
