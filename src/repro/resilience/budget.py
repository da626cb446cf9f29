"""Retry budgets and adaptive concurrency windows (overload armor).

Proteus runs the cache tier at the knee of the provisioning curve, so
overload is the *normal* failure mode: a scale-down shifts remap misses
onto the DB path, and a flash crowd arriving mid-transition pushes the
tier past saturation.  Backoff alone does not save a fleet from that —
when every client retries, the retries *are* the overload (the
metastable retry-storm collapse).  Two mechanisms break the loop:

* :class:`RetryBudget` — a token bucket that caps retries at a
  configurable fraction of *recent* request volume.  Each recorded
  request deposits ``ratio`` tokens; each granted retry withdraws one;
  the balance decays exponentially so a quiet period forgets old
  traffic.  Fleet-wide, retries can therefore never exceed
  ``ratio × offered load`` (plus a small floor for lone clients), which
  bounds amplification at ``1 + ratio`` no matter how badly the tier is
  failing.
* :class:`AdaptiveConcurrencyLimiter` — an AIMD window on in-flight
  work, the TCP congestion-avoidance shape applied to RPCs: successes
  grow the window additively (~ +1 per window of successes), a
  deadline/timeout/shed signal shrinks it multiplicatively, and a
  cooldown makes one burst of timeouts cost one cut instead of one cut
  per timeout.  The window converges to what the backend actually
  sustains, without configuration.

Both are clock-injectable exactly like
:class:`~repro.resilience.breaker.CircuitBreaker`: every method takes an
optional explicit ``now``, the constructor takes a fallback ``clock``,
so the simulator and the unit tests drive them deterministically while
the live tier reads monotonic time.  Purely synchronous, no sleeping —
drivers own the waiting.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

__all__ = ["RetryBudget", "AdaptiveConcurrencyLimiter"]

#: a retry budget's balance cap: how many retries a long quiet stretch can
#: bank for one thundering moment
BURST = 100.0

#: the AIMD window's floor
MIN_LIMIT = 1.0
#: additive-increase numerator: +``INCREASE / limit`` per success
INCREASE = 1.0
#: multiplicative-decrease factor applied on an overload signal
BACKOFF = 0.5
#: seconds after a cut during which further overload signals are absorbed
COOLDOWN = 0.1


class RetryBudget:
    """Token bucket capping retries at a fraction of recent requests.

    Every first attempt calls :meth:`record_request` (depositing
    ``ratio`` tokens, up to ``BURST``); every retry must win
    :meth:`allow_retry` (withdrawing one token).  The balance decays
    with half-life ``halflife`` so "recent volume" means the last few
    half-lives, not all of history.  A small reserve accrues at
    ``min_retries_per_second`` so a client trickling single requests can
    still retry occasionally — without it, ``ratio < 1`` would starve
    low-rate traffic forever.

    Args:
        ratio: tokens deposited per recorded request — the steady-state
            retries-per-request cap.  Finagle ships 0.2; so do we.
        min_retries_per_second: reserve accrual rate, so idle or
            low-volume clients keep a minimal retry allowance.
        halflife: seconds for half the balance to decay — the width of
            the "recent volume" window.
        clock: fallback time source when a method is called without an
            explicit ``now``.
    """

    def __init__(
        self,
        ratio: float = 0.2,
        min_retries_per_second: float = 1.0,
        halflife: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        if min_retries_per_second < 0:
            raise ValueError(
                "min_retries_per_second must be >= 0, "
                f"got {min_retries_per_second}"
            )
        if halflife <= 0:
            raise ValueError(f"halflife must be > 0, got {halflife}")
        self.ratio = ratio
        self.min_retries_per_second = min_retries_per_second
        self.halflife = halflife
        self._clock = clock
        self._balance = 0.0
        self._reserve = 0.0
        self._last = clock()
        #: retries granted / refused (lifetime, for reports)
        self.granted = 0
        self.denied = 0
        #: requests recorded (lifetime)
        self.requests = 0

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    def _advance(self, now: float) -> None:
        """Decay the balance and accrue the reserve up to *now*."""
        elapsed = now - self._last
        if elapsed <= 0:
            return
        self._balance *= 0.5 ** (elapsed / self.halflife)
        self._reserve = min(
            1.0, self._reserve + elapsed * self.min_retries_per_second
        )
        self._last = now

    def record_request(self, n: int = 1, now: Optional[float] = None) -> None:
        """Deposit for *n* first attempts (NOT retries) just issued."""
        self._advance(self._now(now))
        self.requests += n
        self._balance = min(BURST, self._balance + self.ratio * n)

    def allow_retry(self, now: Optional[float] = None) -> bool:
        """Withdraw one retry token; ``False`` means *do not retry*.

        Spends the deposited balance first, then the trickle reserve.
        A refusal is final for this attempt — callers must fail over
        (degrade to the database), not wait and ask again.
        """
        self._advance(self._now(now))
        if self._balance >= 1.0:
            self._balance -= 1.0
            self.granted += 1
            return True
        if self._reserve >= 1.0:
            self._reserve -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def balance(self, now: Optional[float] = None) -> float:
        """Current (decayed) token balance — diagnostics only."""
        self._advance(self._now(now))
        return self._balance

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"RetryBudget(ratio={self.ratio}, balance={self._balance:.2f}, "
            f"granted={self.granted}, denied={self.denied})"
        )


class AdaptiveConcurrencyLimiter:
    """AIMD in-flight window: grow on success, cut on overload signals.

    The window is a float so additive increase can be fractional
    (``INCREASE / limit`` per success ≈ +1 per window of successes, the
    congestion-avoidance slope); admission compares integral in-flight
    count against ``floor`` of it.  Overload signals (deadline blown,
    op timeout, server shed) multiply the window by ``BACKOFF``, but at
    most once per ``COOLDOWN`` seconds — all the timeouts of one stalled
    window arrive together and must count as *one* congestion event, or
    the window collapses to the floor on every blip.

    Args:
        initial: starting window.
        max_limit: the window's ceiling (``MIN_LIMIT`` is its floor).
        clock: fallback time source when a method is called without an
            explicit ``now``.
    """

    def __init__(
        self,
        initial: float = 16.0,
        max_limit: float = 1024.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not MIN_LIMIT <= initial <= max_limit:
            raise ValueError(
                f"initial must be in [{MIN_LIMIT}, {max_limit}], got {initial}"
            )
        self.max_limit = max_limit
        self._clock = clock
        self._limit = float(initial)
        self._last_cut = -math.inf
        #: current in-flight count (callers pair try_acquire/release)
        self.inflight = 0
        #: admissions refused because the window was full
        self.shed = 0
        #: multiplicative cuts taken (cooldown-absorbed signals excluded)
        self.cuts = 0
        #: highest in-flight count ever admitted
        self.peak_inflight = 0

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    @property
    def limit(self) -> float:
        """The current (fractional) window."""
        return self._limit

    @property
    def window(self) -> int:
        """The integral admission window (``floor(limit)``, >= 1)."""
        return max(1, int(self._limit))

    # ----------------------------------------------------------- admission

    def try_acquire(self, now: Optional[float] = None) -> bool:
        """Admit one unit of in-flight work, or refuse (counted in
        ``shed``).  Pair every ``True`` with exactly one :meth:`release`."""
        if self.inflight < self.window:
            self.inflight += 1
            if self.inflight > self.peak_inflight:
                self.peak_inflight = self.inflight
            return True
        self.shed += 1
        return False

    def release(self) -> None:
        """Return one admitted unit (clamped — never goes negative)."""
        self.inflight = max(0, self.inflight - 1)

    # ------------------------------------------------------------ feedback

    def on_success(self, now: Optional[float] = None) -> None:
        """An admitted unit completed cleanly: additive increase."""
        self._limit = min(
            self.max_limit, self._limit + INCREASE / max(1.0, self._limit)
        )

    def on_overload(self, now: Optional[float] = None) -> None:
        """A deadline/timeout/shed signal: multiplicative decrease.

        At most one cut per ``COOLDOWN`` window — signals inside the
        cooldown are echoes of the same congestion event.
        """
        moment = self._now(now)
        if moment - self._last_cut < COOLDOWN:
            return
        self._last_cut = moment
        self._limit = max(MIN_LIMIT, self._limit * BACKOFF)
        self.cuts += 1

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"AdaptiveConcurrencyLimiter(limit={self._limit:.1f}, "
            f"inflight={self.inflight}, shed={self.shed}, cuts={self.cuts})"
        )
