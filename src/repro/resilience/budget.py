"""Retry budgets (overload armor of the simulated clients).

Proteus runs the cache tier at the knee of the provisioning curve, so
overload is the *normal* failure mode: a scale-down shifts remap misses
onto the DB path, and a flash crowd arriving mid-transition pushes the
tier past saturation.  Backoff alone does not save a fleet from that —
when every client retries, the retries *are* the overload (the
metastable retry-storm collapse).  One mechanism breaks the loop:

* :class:`RetryBudget` — a token bucket that caps retries at a
  configurable fraction of *recent* request volume.  Each recorded
  request deposits ``ratio`` tokens; each granted retry withdraws one;
  the balance decays exponentially so a quiet period forgets old
  traffic.  Fleet-wide, retries can therefore never exceed
  ``ratio × offered load`` (plus a small floor for lone clients), which
  bounds amplification at ``1 + ratio`` no matter how badly the tier is
  failing.

Every method takes the caller's ``now`` and the budget's clock starts at
the first one it is given, so a simulated client drives it on virtual
time.  Purely synchronous, no sleeping — drivers own the waiting.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RetryBudget"]

#: a retry budget's balance cap: how many retries a long quiet stretch can
#: bank for one thundering moment
BURST = 100.0


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
    """

    def __init__(
        self,
        ratio: float = 0.2,
        min_retries_per_second: float = 1.0,
        halflife: float = 10.0,
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
        self._balance = 0.0
        self._reserve = 0.0
        #: the last ``now`` seen; the clock starts at the first one
        self._last: Optional[float] = None
        #: retries granted / refused (lifetime, for reports)
        self.granted = 0
        self.denied = 0
        #: requests recorded (lifetime)
        self.requests = 0

    def _advance(self, now: float) -> None:
        """Decay the balance and accrue the reserve up to *now*."""
        if self._last is None:
            self._last = now
        elapsed = now - self._last
        if elapsed <= 0:
            return
        self._balance *= 0.5 ** (elapsed / self.halflife)
        self._reserve = min(
            1.0, self._reserve + elapsed * self.min_retries_per_second
        )
        self._last = now

    def record_request(self, now: float, n: int = 1) -> None:
        """Deposit for *n* first attempts (NOT retries) just issued."""
        self._advance(now)
        self.requests += n
        self._balance = min(BURST, self._balance + self.ratio * n)

    def allow_retry(self, now: float) -> bool:
        """Withdraw one retry token; ``False`` means *do not retry*.

        Spends the deposited balance first, then the trickle reserve.
        A refusal is final for this attempt — callers must fail over
        (degrade to the database), not wait and ask again.
        """
        self._advance(now)
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

    def balance(self, now: float) -> float:
        """Current (decayed) token balance — diagnostics only."""
        self._advance(now)
        return self._balance

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"RetryBudget(ratio={self.ratio}, balance={self._balance:.2f}, "
            f"granted={self.granted}, denied={self.denied})"
        )
