"""Per-server circuit breaker (closed / open / half-open with probes).

When a cache server dies, every request routed to it would otherwise pay
the full connect-timeout + retry cost before degrading to the database —
exactly the delay spike Proteus exists to avoid.  The breaker makes the
fault *cheap*: after ``failure_threshold`` consecutive failures the circuit
opens and requests skip the server outright (the driver answers the engine
with ``SERVER_UNAVAILABLE`` and Algorithm 2 degrades to the database
immediately).  After ``reset_timeout`` seconds the breaker admits
``HALF_OPEN_PROBES`` trial requests; one success closes the circuit, one
failure re-opens it for another timeout.

Clock-injectable and purely synchronous: every method takes an optional
explicit ``now`` so the simulator and the unit tests drive state
transitions deterministically; the live tier lets it read the frontend's
monotonic clock.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Optional

__all__ = ["BreakerState", "CircuitBreaker"]

#: concurrent trial requests a half-open circuit admits
HALF_OPEN_PROBES = 1


class BreakerState(enum.Enum):
    """Where the circuit is in its trip/recovery cycle."""

    #: normal service, failures counted
    CLOSED = "closed"
    #: tripped: requests are refused without touching the server
    OPEN = "open"
    #: reset_timeout elapsed: a bounded number of probe requests may pass
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker guarding one cache server.

    Args:
        failure_threshold: consecutive failures that trip the circuit.
        reset_timeout: seconds an open circuit stays closed to traffic
            before admitting probes.
        clock: fallback time source when a method is called without an
            explicit ``now``.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: lifetime trip count (diagnostics / reports)
        self.trips = 0

    # --------------------------------------------------------------- state

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    def state(self, now: Optional[float] = None) -> BreakerState:
        """Current state, advancing OPEN -> HALF_OPEN on timeout expiry."""
        if (
            self._state is BreakerState.OPEN
            and self._now(now) - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    # ----------------------------------------------------------- admission

    def allow(self, now: Optional[float] = None) -> bool:
        """May a request be sent to the guarded server right now?

        CLOSED: always.  OPEN: never.
        HALF_OPEN: up to ``HALF_OPEN_PROBES`` concurrent trial requests;
        the rest are refused until a probe reports back.
        """
        if self._state is BreakerState.CLOSED:  # no clock, no frame
            return True
        state = self.state(now)
        if state is BreakerState.OPEN:
            return False
        if self._probes_in_flight < HALF_OPEN_PROBES:
            self._probes_in_flight += 1
            return True
        return False

    # ------------------------------------------------------------ outcomes

    def record_success(self, now: Optional[float] = None) -> None:
        """An admitted request completed: close the circuit."""
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probes_in_flight = 0

    def record_failure(self, now: Optional[float] = None) -> None:
        """An admitted request failed: count it, trip/re-trip if due."""
        moment = self._now(now)
        state = self.state(moment)
        self._consecutive_failures += 1
        if state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN for another window.
            self._trip(moment)
        elif (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip(moment)

    def _trip(self, now: float) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = now
        self._probes_in_flight = 0
        self.trips += 1
