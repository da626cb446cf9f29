"""The one path from the live web tier to a cache server.

:class:`CacheTransport` fronts each endpoint with a
:class:`~repro.net.pool.ConnectionPool` of pipelined
:class:`~repro.net.client.MemcachedClient` connections (``pool_size``
per server, lazily dialled — the way the paper's web tier pools its
spymemcached connections) and runs **every** cache RPC of
:class:`~repro.net.webtier.AsyncProteusFrontend` — probes, write-backs,
``put``'s writes and deletes, and the digest broadcast — through one
private :meth:`_call`, so retry policy lives in exactly one audited place.
A test or a simulator swaps the whole object (``web.transport = fake``):
the frontend only ever calls the four seam methods :meth:`get_multi`,
:meth:`set_multi`, :meth:`delete_multi` and :meth:`digest`.

Fault tolerance
---------------

:meth:`_call` layers the :mod:`repro.resilience` policies around the
socket work, in this order (the overload armor — limiter, budget — is
opt-in via :class:`~repro.resilience.ResiliencePolicy`):

* a per-request :class:`~repro.resilience.Deadline` bounds the total time
  spent on cache-side recovery: an already-expired one fails fast (no
  dial, no queue, no retry), and a backoff sleep that would overrun it is
  skipped;
* a per-server :class:`~repro.resilience.CircuitBreaker` refuses the RPC
  outright while the server's circuit is open (no connect-timeout tax on
  every request to a dead server);
* a per-server AIMD limiter bounds concurrent RPCs; a refused acquire
  fails immediately (counted in ``shed_rpcs``).  Operation timeouts
  shrink the window multiplicatively, successes grow it back additively;
* transient transport faults are retried with the policy's seeded
  backoff, against the auto-reconnecting client — but every retry must be
  granted by the transport-wide :class:`~repro.resilience.RetryBudget`,
  so total retry volume stays a bounded fraction of request volume;
* :class:`~repro.errors.OverloadError` answers (``SERVER_ERROR busy``
  sheds, saturated pools, full client windows) are **never retried** — a
  storm cannot amplify through here.

:meth:`get_multi`, :meth:`set_multi` and :meth:`delete_multi` answer the
engine: when the policy's ``degrade_to_database`` flag is set (the
default), an RPC that cannot be completed returns ``SERVER_UNAVAILABLE``
instead of raising, and Algorithm 2 degrades — a dead new owner forces a
database read (``FetchPath.DEGRADED_DB``), a dead old owner skips the
migration probe, a failed write-back is recorded but never fails the
fetch; a ``put`` names the servers that answered so in its
``TransportError``.  :meth:`digest` answers an all-or-nothing broadcast,
so it always raises.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import BloomConfig
from repro.core.retrieval import SERVER_UNAVAILABLE
from repro.errors import (
    ClientOverloadError,
    ConfigurationError,
    DeadlineExceeded,
    OverloadError,
    ServerBusyError,
    TransportError,
)
from repro.net.client import MemcachedClient
from repro.net.pool import ConnectionPool
from repro.resilience import (
    AdaptiveConcurrencyLimiter,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryBudget,
)

__all__ = ["CacheTransport"]


def _is_timeout(error: BaseException) -> bool:
    """True when *error* is (or was caused by) an operation timeout —
    the congestion signal the AIMD limiter shrinks on.  Refused
    connections are a liveness problem (the breaker's job), not a
    window problem, so they deliberately do not count."""
    seen = set()
    current: Optional[BaseException] = error
    while current is not None and id(current) not in seen:
        if isinstance(current, asyncio.TimeoutError):
            return True
        seen.add(id(current))
        current = current.__cause__
    return False


async def _snapshot_and_fetch(
    client: MemcachedClient, bloom_config: BloomConfig
) -> BloomFilter:
    # Two sequential exchanges on one connection: replies are matched
    # FIFO, so interleaved traffic from other tasks cannot reorder
    # snapshot before fetch.
    await client.snapshot_digest()
    return await client.fetch_digest(
        bloom_config.num_counters, bloom_config.num_hashes
    )


async def _delete_each(client: MemcachedClient, keys) -> int:
    # memcached has no multi-key delete: one exchange per key (a put
    # invalidates one key, so one exchange); deleting is idempotent, so
    # the batch retries as a unit.
    deleted = 0
    for key in keys:
        deleted += await client.delete(key)
    return deleted


class CacheTransport:
    """Pools, breakers, limiters and the retry budget of one frontend.

    Args:
        endpoints: ``(host, port)`` per cache server, in provisioning order.
        policy: retry/breaker/deadline/overload policy for every RPC.
        clock: time source shared by the breakers, limiters and budget.
        pool_size: pipelined connections per cache server.
        max_inflight_per_conn: per-connection in-flight window handed to
            every pool (see :class:`~repro.net.pool.ConnectionPool`);
            ``None`` keeps the unbounded pre-armor behaviour.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        policy: ResiliencePolicy,
        clock: Callable[[], float] = time.monotonic,
        pool_size: int = 4,
        max_inflight_per_conn: Optional[int] = None,
    ) -> None:
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1: {pool_size}")
        self.endpoints = list(endpoints)
        self.policy = policy
        self._clock = clock
        self.pool_size = pool_size
        self.max_inflight_per_conn = max_inflight_per_conn
        #: one pool per cache server; ``None`` until :meth:`connect`
        self.pools: List[Optional[ConnectionPool]] = [None] * len(endpoints)
        #: one breaker per cache server
        self.breakers: List[CircuitBreaker] = [
            policy.new_breaker(clock) for _ in endpoints
        ]
        #: one retry budget for the whole frontend (``None`` when the
        #: policy's ``retry_budget_ratio`` is 0): the cap is on *total*
        #: retry volume, so a storm cannot multiply across servers
        self.retry_budget: Optional[RetryBudget] = policy.new_retry_budget(clock)
        #: per-server AIMD in-flight windows (``None`` entries when the
        #: policy's ``limiter_window`` is 0)
        self.limiters: List[Optional[AdaptiveConcurrencyLimiter]] = [
            policy.new_limiter(clock) for _ in endpoints
        ]
        #: cache RPCs that could not be completed (degraded or raised)
        self.unavailable_rpcs = 0
        #: transient cache-RPC failures observed (pre-retry, per attempt)
        self.transient_failures = 0
        #: cache RPCs refused by overload armor (limiter window full,
        #: server busy reply, saturated pool) — never retried
        self.shed_rpcs = 0
        #: retries skipped because the budget was spent
        self.budget_denied_retries = 0

    # ----------------------------------------------------------- lifecycle

    async def connect(self) -> None:
        """Create one connection pool per endpoint and prewarm each.

        An endpoint that refuses the initial dial does not fail the whole
        transport: its pool stays registered (it keeps dialling lazily),
        its breaker absorbs the failures, and requests degrade around it
        until it comes back.
        """
        for index, (host, port) in enumerate(self.endpoints):
            if self.pools[index] is None:
                self.pools[index] = ConnectionPool(
                    host,
                    port,
                    size=self.pool_size,
                    timeout=self.policy.op_timeout,
                    max_inflight_per_conn=self.max_inflight_per_conn,
                )
            try:
                await self.pools[index].prewarm()
            except (TransportError, OSError):
                self.breakers[index].record_failure()

    async def close(self) -> None:
        for index, pool in enumerate(self.pools):
            if pool is not None:
                await pool.close()
                self.pools[index] = None

    # --------------------------------------------------------------- stats

    @property
    def reconnects(self) -> int:
        """Connection churn across every server's pool (client redials
        plus pool ejections) — the signal health monitors watch."""
        return sum(pool.reconnects for pool in self.pools if pool is not None)

    def stats(self) -> Dict[str, int]:
        """Aggregated counters across every pool, limiter, and the retry
        budget (all monotonic)."""
        pools = [pool for pool in self.pools if pool is not None]
        stats = {
            "dials": sum(p.dials for p in pools),
            "ejections": sum(p.ejections for p in pools),
            "reconnects": self.reconnects,
            "pool_waited": sum(p.waited for p in pools),
            "pool_leases_peak": max(
                (p.leases_peak for p in pools), default=0
            ),
            "pool_overflow_failures": sum(
                p.overflow_failures for p in pools
            ),
            "unavailable_rpcs": self.unavailable_rpcs,
            "transient_failures": self.transient_failures,
            "shed_rpcs": self.shed_rpcs,
            "budget_denied_retries": self.budget_denied_retries,
        }
        if self.retry_budget is not None:
            stats["retries_granted"] = self.retry_budget.granted
            stats["retries_denied"] = self.retry_budget.denied
        limiters = [lim for lim in self.limiters if lim is not None]
        if limiters:
            stats["limiter_shed"] = sum(lim.shed for lim in limiters)
            stats["limiter_cuts"] = sum(lim.cuts for lim in limiters)
            stats["limiter_peak_inflight"] = max(
                lim.peak_inflight for lim in limiters
            )
        return stats

    # ---------------------------------------------------------------- RPCs

    def get_multi(self, server_id: int, keys, deadline=None):
        """``{key: value}`` of the hits among *keys*, or
        ``SERVER_UNAVAILABLE`` under a degrading policy."""
        return self._call(
            server_id, deadline, self.policy.degrade_to_database,
            MemcachedClient.get_multi, keys,
        )

    def set_multi(self, server_id: int, items, deadline=None):
        """Store every ``(key, value)`` of *items*; ``SERVER_UNAVAILABLE``
        under a degrading policy when the server cannot take them."""
        return self._call(
            server_id, deadline, self.policy.degrade_to_database,
            MemcachedClient.set_multi, items,
        )

    def delete_multi(self, server_id: int, keys, deadline=None):
        """Delete every key of *keys* (a write's invalidations);
        ``SERVER_UNAVAILABLE`` under a degrading policy when the server
        cannot take them."""
        return self._call(
            server_id, deadline, self.policy.degrade_to_database,
            _delete_each, keys,
        )

    def digest(self, server_id: int, bloom_config: BloomConfig):
        """Snapshot + fetch one server's digest on one lease (the pair is
        idempotent, so it retries as a unit); raises when it cannot."""
        return self._call(
            server_id, None, False, _snapshot_and_fetch, bloom_config
        )

    async def _call(
        self,
        server_id: int,
        deadline: Optional[Deadline],
        degrade: bool,
        op: Callable[..., Any],
        *args,
    ) -> Any:
        """``await op(client, *args)`` on a connection leased from
        *server_id*'s pool, under the breaker + retry + deadline policy.

        Each attempt leases afresh (so the lease is released across
        backoff sleeps and a retry lands on a healthy connection).  With
        *degrade* the answer to an RPC that could not be completed is
        ``SERVER_UNAVAILABLE`` — a transient error is never raised;
        without it the final transient error propagates.  Fatal errors
        (anything the retry policy does not classify transient) always
        propagate: retrying cannot change a configuration mistake.
        """
        policy = self.policy
        if deadline is not None and deadline.expired():
            # Fail fast on a dead budget: skip dialling and queueing
            # entirely — the RPC could not possibly be useful.
            self.unavailable_rpcs += 1
            if degrade:
                return SERVER_UNAVAILABLE
            deadline.check(f"cache rpc to server {server_id}")
        breaker = self.breakers[server_id]
        if not breaker.allow(self._clock()):
            self.unavailable_rpcs += 1
            if degrade:
                return SERVER_UNAVAILABLE
            raise TransportError(f"circuit open for cache server {server_id}")
        limiter = self.limiters[server_id]
        if limiter is not None and not limiter.try_acquire(self._clock()):
            self.shed_rpcs += 1
            self.unavailable_rpcs += 1
            if degrade:
                return SERVER_UNAVAILABLE
            raise ClientOverloadError(
                f"cache server {server_id}: in-flight window full"
            )
        try:
            pool = self.pools[server_id]
            if pool is None:
                raise ConfigurationError(
                    f"no connection pool for cache server {server_id}; "
                    "call connect()"
                )
            if self.retry_budget is not None:
                # Deposit happens per RPC, not per attempt: the budget
                # caps retries at a fraction of *request* volume.
                self.retry_budget.record_request(now=self._clock())
            sleeps: Optional[List[float]] = None  # drawn on first failure
            last_error: Optional[BaseException] = None
            for attempt in range(policy.retry.max_attempts):
                if deadline is not None and deadline.expired():
                    break
                try:
                    client = await pool.acquire(deadline)
                    try:
                        result = await op(client, *args)
                    finally:
                        pool.release(client)
                except OverloadError as error:
                    # A shed reply or a local bound: retrying would feed
                    # the storm, so give up on the server straight away.
                    last_error = error
                    self.shed_rpcs += 1
                    if limiter is not None and isinstance(
                        error, ServerBusyError
                    ):
                        limiter.on_overload(self._clock())
                    break
                except DeadlineExceeded as error:
                    last_error = error
                    break
                except Exception as error:
                    if not policy.retry.is_transient(error):
                        raise
                    last_error = error
                    self.transient_failures += 1
                    breaker.record_failure(self._clock())
                    if limiter is not None and _is_timeout(error):
                        limiter.on_overload(self._clock())
                    if sleeps is None:
                        sleeps = list(policy.retry.delays())
                    if attempt >= len(sleeps):
                        break
                    if not breaker.allow(self._clock()):
                        # The circuit tripped mid-loop: stop hammering.
                        break
                    if self.retry_budget is not None and (
                        not self.retry_budget.allow_retry(self._clock())
                    ):
                        self.budget_denied_retries += 1
                        break
                    sleep = sleeps[attempt]
                    if deadline is not None and not deadline.allows(sleep):
                        break
                    if sleep > 0:
                        await asyncio.sleep(sleep)
                else:
                    breaker.record_success(self._clock())
                    if limiter is not None:
                        limiter.on_success(self._clock())
                    return result
        finally:
            if limiter is not None:
                limiter.release()
        self.unavailable_rpcs += 1
        if degrade:
            return SERVER_UNAVAILABLE
        if last_error is not None:
            raise last_error
        raise TransportError(
            f"request deadline spent before cache server {server_id} answered"
        )
