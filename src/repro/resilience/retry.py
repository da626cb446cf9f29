"""Retry policy: capped exponential backoff with seeded jitter.

One :class:`RetryPolicy` answers two questions for a driver:

* *Should this error be retried at all?*  Transient transport faults
  (resets, timeouts, EOF mid-reply, garbled replies on a poisoned stream)
  are retried on a fresh connection; configuration and transition errors
  are fatal — retrying cannot change the answer.
* *How long to wait between attempts?*  Capped exponential backoff with
  proportional jitter, drawn from a seeded PRNG so tests (and the sim
  substrate) see a deterministic delay sequence.

The policy is pure data + arithmetic: it never sleeps and never touches a
clock.  Drivers own the sleeping (``asyncio.sleep`` on the live tier, a
virtual-clock advance in the simulator), which is what keeps the fault
behaviour testable without wall time.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Type

from repro.errors import OverloadError, ProtocolError, TransportError

__all__ = ["RetryPolicy", "TRANSIENT_ERRORS", "NEVER_RETRY"]

#: exponential growth factor of the backoff per retry
MULTIPLIER = 2.0
#: proportional jitter fraction of every backoff sleep
JITTER = 0.2
#: seed of the jitter stream
SEED = 0

#: The transient fault class: errors a fresh connection + retry can
#: plausibly cure.  ``ProtocolError`` is included because the hardened
#: client poisons and replaces the connection after one, so the retry runs
#: against a clean stream; ``OSError`` covers refused/reset connections and
#: (via ``TimeoutError``) per-op timeouts.
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (
    TransportError,
    ProtocolError,
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
)

#: Never retried, checked before ``TRANSIENT_ERRORS``.
#: ``CancelledError`` is a *request to stop* (it subclasses
#: ``BaseException`` precisely so handlers don't swallow it) and a retry
#: would defeat the cancellation; ``OverloadError`` is a *shed* — some
#: layer refused work it could not absorb, and an immediate retry feeds
#: the very overload that caused the refusal (storm amplification).
NEVER_RETRY: Tuple[Type[BaseException], ...] = (
    asyncio.CancelledError,
    OverloadError,
)


@dataclass
class RetryPolicy:
    """Capped exponential backoff with seeded proportional jitter.

    Attempt *i* (0-based) is followed, when it fails transiently and
    another attempt remains, by a sleep of::

        min(max_delay, base_delay * MULTIPLIER**i) * (1 ± JITTER)

    where the jitter factor is drawn uniformly from ``[1-JITTER, 1+JITTER]``
    by a PRNG seeded with ``SEED`` — one fresh PRNG per :meth:`delays`
    call, so every retry sequence is reproducible.

    Args:
        max_attempts: total tries including the first (1 = no retries).
        base_delay: backoff before the first retry, seconds.
        max_delay: backoff cap, seconds.

    Only ``TRANSIENT_ERRORS`` are retried; anything else is fatal and
    propagates immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    # ------------------------------------------------------- classification

    def is_transient(self, error: BaseException) -> bool:
        """True when *error* is worth a retry on a fresh connection.

        ``NEVER_RETRY`` errors (cancellation, shed replies) answer
        ``False`` unconditionally.
        """
        if isinstance(error, NEVER_RETRY):
            return False
        return isinstance(error, TRANSIENT_ERRORS)

    # ------------------------------------------------------------- backoff

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The (jittered) sleep after failed attempt *attempt* (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        base = min(self.max_delay, self.base_delay * MULTIPLIER ** attempt)
        rng = rng if rng is not None else random.Random(SEED)
        return base * (1.0 + JITTER * (2.0 * rng.random() - 1.0))

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """The full backoff sequence: ``max_attempts - 1`` sleeps.

        With no *rng* given, a fresh ``random.Random(SEED)`` is used, so two
        calls yield identical sequences — the property the seeded-jitter
        tests pin.
        """
        rng = rng if rng is not None else random.Random(SEED)
        for attempt in range(self.max_attempts - 1):
            yield self.backoff(attempt, rng)
