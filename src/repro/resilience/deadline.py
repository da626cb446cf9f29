"""Per-request time budgets (the deadline half of fail-fast retrieval).

Proteus promises that provisioning transitions never serve a delay spike
(Section IV): a request that cannot be answered from cache in time must
fall through to the database, not hang on a dead socket.  A
:class:`Deadline` is the bookkeeping for that promise — one budget per
request, consulted before every retry attempt and every backoff sleep, so
a retry loop can stop *before* it would blow the budget instead of after.

Clock-injectable: the live tier passes ``time.monotonic``, the simulator
and the unit tests pass a fake, so expiry is deterministic under test.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["Deadline"]


class Deadline:
    """A fixed time budget measured against an injectable clock.

    Args:
        budget: seconds allowed from the clock's current reading.  ``None``
            means unlimited —
            every query answers "plenty of time left", so callers need no
            special-casing for the no-deadline configuration.
        clock: time source (``time.monotonic`` by default).
    """

    def __init__(
        self,
        budget: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._clock = clock
        self.budget = budget
        self.start = clock()

    def remaining(self, now: Optional[float] = None) -> float:
        """Seconds left (clamped at 0); ``inf`` for an unlimited budget."""
        if self.budget is None:
            return float("inf")
        if now is None:
            now = self._clock()
        return max(0.0, self.start + self.budget - now)

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the budget is spent."""
        return self.budget is not None and self.remaining(now) <= 0.0

    def allows(self, duration: float, now: Optional[float] = None) -> bool:
        """True when *duration* more seconds fit inside the budget.

        The retry loop's pre-sleep check: a backoff sleep that would end
        past the deadline is pointless — fail over now instead.
        """
        return self.remaining(now) >= duration

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Deadline(budget={self.budget!r}, remaining={self.remaining():.3f})"
