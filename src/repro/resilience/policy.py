"""The bundled fault-tolerance policy a driver wires through its RPCs.

One :class:`ResiliencePolicy` object carries everything the live frontend
(or any future driver) needs to run a cache RPC the fault-tolerant way:
the retry policy, the per-server circuit-breaker parameters, the per-op
timeout handed to clients, and the per-request deadline budget.  Keeping
it one object means a test, a benchmark, and a deployment configure fault
handling with a single argument — and the sim tier can instantiate the
same policy against its virtual clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.resilience.breaker import BreakerSnapshot, CircuitBreaker
from repro.resilience.budget import AdaptiveConcurrencyLimiter, RetryBudget
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy

__all__ = ["ResiliencePolicy"]


@dataclass
class ResiliencePolicy:
    """Retry + breaker + deadline parameters, bundled.

    Args:
        retry: backoff/classification policy for cache RPCs.
        breaker_failures: consecutive failures that open a server's circuit.
        breaker_reset: seconds an open circuit refuses traffic before
            admitting half-open probes.
        op_timeout: per-operation timeout handed to each
            :class:`~repro.net.client.MemcachedClient` (``None``: no
            timeout — a hung server then blocks until TCP gives up).
        request_budget: per-``fetch`` deadline budget in seconds (``None``:
            unlimited).  When the budget is spent, remaining cache RPCs are
            skipped and the request degrades to the database immediately.
        retry_budget_ratio: retries allowed per recent request, shared
            across every retry loop the driver runs (0.0 disables the
            budget — the pre-overload-armor behaviour).
        limiter_window: starting AIMD in-flight window per server (0
            disables adaptive concurrency limiting).
    """

    retry: RetryPolicy = None  # type: ignore[assignment]
    breaker_failures: int = 3
    breaker_reset: float = 1.0
    op_timeout: Optional[float] = None
    request_budget: Optional[float] = None
    retry_budget_ratio: float = 0.0
    limiter_window: int = 0

    def __post_init__(self) -> None:
        if self.retry is None:
            self.retry = RetryPolicy()

    @classmethod
    def default(cls) -> "ResiliencePolicy":
        """The conservative always-on policy: one quick retry, small
        breaker, no timeouts/budgets (no behaviour change on healthy
        clusters beyond bookkeeping)."""
        return cls(retry=RetryPolicy(max_attempts=2, base_delay=0.005))

    @classmethod
    def aggressive(cls, op_timeout: float = 0.25) -> "ResiliencePolicy":
        """Fail-fast settings for chaos tests and latency-sensitive runs."""
        return cls(
            retry=RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.05),
            breaker_failures=2,
            breaker_reset=0.5,
            op_timeout=op_timeout,
            request_budget=max(1.0, 8 * op_timeout),
        )

    @classmethod
    def overload_armor(cls, op_timeout: float = 0.25) -> "ResiliencePolicy":
        """The :meth:`aggressive` profile with the overload armor on:
        a 0.2 retry budget and an adaptive per-server window, for
        5x-offered-load territory where unbudgeted retries amplify."""
        policy = cls.aggressive(op_timeout=op_timeout)
        policy.retry_budget_ratio = 0.2
        policy.limiter_window = 64
        return policy

    # ----------------------------------------------------------- factories

    def new_breaker(
        self, clock: Callable[[], float] = time.monotonic
    ) -> CircuitBreaker:
        """A fresh per-server breaker bound to *clock*."""
        return CircuitBreaker(
            failure_threshold=self.breaker_failures,
            reset_timeout=self.breaker_reset,
            clock=clock,
        )

    def new_deadline(
        self, clock: Callable[[], float] = time.monotonic
    ) -> Deadline:
        """A fresh per-request deadline bound to *clock* (may be unlimited)."""
        return Deadline(self.request_budget, clock=clock)

    def new_retry_budget(
        self, clock: Callable[[], float] = time.monotonic
    ) -> Optional[RetryBudget]:
        """The driver-wide retry budget, or ``None`` when disabled.

        One budget per driver (NOT per server): a storm against one
        server must not be fundable from another server's quiet traffic
        being absent — the cap is on the driver's total retry volume.
        """
        if self.retry_budget_ratio <= 0.0:
            return None
        return RetryBudget(ratio=self.retry_budget_ratio, clock=clock)

    def new_limiter(
        self, clock: Callable[[], float] = time.monotonic
    ) -> Optional[AdaptiveConcurrencyLimiter]:
        """A fresh per-server AIMD window, or ``None`` when disabled."""
        if self.limiter_window <= 0:
            return None
        return AdaptiveConcurrencyLimiter(
            initial=float(self.limiter_window),
            max_limit=float(max(1024, self.limiter_window)),
            clock=clock,
        )

    # -------------------------------------------------------- introspection

    @staticmethod
    def health(
        breakers: Iterable[CircuitBreaker], now: Optional[float] = None
    ) -> Dict[int, BreakerSnapshot]:
        """Read-only health of a fleet of per-server breakers.

        Returns ``server_id -> BreakerSnapshot`` (ids are the iteration
        positions, matching the provisioning-order indexing every driver
        uses).  This is the sanctioned introspection path for monitors:
        no caller should reach into a breaker's private fields.
        """
        return {
            server_id: breaker.snapshot(now)
            for server_id, breaker in enumerate(breakers)
        }
