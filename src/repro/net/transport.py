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

:meth:`_call` layers the :mod:`repro.resilience` policies of one
:class:`~repro.resilience.ResiliencePolicy` around the socket work, in
this order — deadline, breaker, lease, retry:

* a per-request :class:`~repro.resilience.Deadline` bounds the total time
  spent on cache-side recovery: an already-expired one fails fast (no
  dial, no queue, no retry), and a backoff sleep that would overrun it is
  skipped;
* a per-server :class:`~repro.resilience.CircuitBreaker` refuses the RPC
  outright while the server's circuit is open (no connect-timeout tax on
  every request to a dead server);
* each attempt leases a connection from the server's pool afresh, so
  no lease is held across a backoff sleep;
* transient transport faults are retried with the policy's seeded
  backoff, against the auto-reconnecting client;
* :class:`~repro.errors.OverloadError` answers (``SERVER_ERROR busy``
  sheds, counted in ``shed_rpcs``) are **never retried** — a storm
  cannot amplify through here.

Nothing here sheds for concurrency: past the pool's bound, RPCs share
pipelined connections and the server answers them in turn, so a burst of
pages against a healthy cluster is served from the cache, never sent to
the database.

:meth:`get_multi`, :meth:`set_multi` and :meth:`delete_multi` answer the
engine: an RPC that cannot be completed returns ``SERVER_UNAVAILABLE``
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
    ConfigurationError,
    DeadlineExceeded,
    OverloadError,
    TransportError,
)
from repro.net.client import MemcachedClient
from repro.net.pool import ConnectionPool
from repro.resilience import CircuitBreaker, Deadline, ResiliencePolicy

__all__ = ["CacheTransport"]


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
    """The pools and breakers of one frontend.

    Args:
        endpoints: ``(host, port)`` per cache server, in provisioning order.
        policy: retry/breaker/deadline policy for every RPC.
        clock: time source of the breakers.
        pool_size: pipelined connections per cache server.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        policy: ResiliencePolicy,
        clock: Callable[[], float] = time.monotonic,
        pool_size: int = 4,
    ) -> None:
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1: {pool_size}")
        self.endpoints = list(endpoints)
        self.policy = policy
        self.pool_size = pool_size
        #: one pool per cache server; ``None`` until :meth:`connect`
        self.pools: List[Optional[ConnectionPool]] = [None] * len(endpoints)
        #: one breaker per cache server
        self.breakers: List[CircuitBreaker] = [
            policy.new_breaker(clock) for _ in endpoints
        ]
        #: cache RPCs that could not be completed (degraded or raised)
        self.unavailable_rpcs = 0
        #: transient cache-RPC failures observed (pre-retry, per attempt)
        self.transient_failures = 0
        #: cache RPCs a server shed (``SERVER_ERROR busy``) — never retried
        self.shed_rpcs = 0

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
        plus pool ejections; monotonic)."""
        return sum(pool.reconnects for pool in self.pools if pool is not None)

    def stats(self) -> Dict[str, int]:
        """Aggregated counters across every pool (all monotonic)."""
        pools = [pool for pool in self.pools if pool is not None]
        return {
            "dials": sum(p.dials for p in pools),
            "ejections": sum(p.ejections for p in pools),
            "reconnects": self.reconnects,
            "pool_waited": sum(p.waited for p in pools),
            "pool_leases_peak": max(
                (p.leases_peak for p in pools), default=0
            ),
            "unavailable_rpcs": self.unavailable_rpcs,
            "transient_failures": self.transient_failures,
            "shed_rpcs": self.shed_rpcs,
        }

    # ---------------------------------------------------------------- RPCs

    def get_multi(self, server_id: int, keys, deadline=None):
        """``{key: value}`` of the hits among *keys*, or
        ``SERVER_UNAVAILABLE``."""
        return self._call(
            server_id, deadline, True, MemcachedClient.get_multi, keys
        )

    def set_multi(self, server_id: int, items, deadline=None, verb="set"):
        """Store every ``(key, value)`` of *items* with *verb* (``set``, or
        ``add``: only where absent); ``SERVER_UNAVAILABLE`` when the server
        cannot take them."""
        return self._call(
            server_id, deadline, True,
            MemcachedClient.set_multi, items, 0, 0, verb,
        )

    def delete_multi(self, server_id: int, keys, deadline=None):
        """Delete every key of *keys* (a write's invalidations);
        ``SERVER_UNAVAILABLE`` when the server cannot take them."""
        return self._call(server_id, deadline, True, _delete_each, keys)

    def digest(self, server_id: int, bloom_config: BloomConfig):
        """Snapshot + fetch one server's digest on one lease (the pair is
        idempotent, so it retries as a unit); raises when it cannot."""
        return self._call(
            server_id, None, False, _snapshot_and_fetch, bloom_config
        )

    def flush(self, server_id: int):
        """Empty one server (``flush_all``), as a scale-up does to each
        joining server; raises when it cannot."""
        return self._call(server_id, None, False, MemcachedClient.flush_all)

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
        # The breaker reads its own clock (this one) only when it is open.
        if not breaker.allow():
            self.unavailable_rpcs += 1
            if degrade:
                return SERVER_UNAVAILABLE
            raise TransportError(f"circuit open for cache server {server_id}")
        pool = self.pools[server_id]
        if pool is None:
            raise ConfigurationError(
                f"no connection pool for cache server {server_id}; "
                "call connect()"
            )
        sleeps: Optional[List[float]] = None  # drawn on first failure
        last_error: Optional[BaseException] = None
        for attempt in range(policy.retry.max_attempts):
            if attempt and deadline is not None and deadline.expired():
                break
            try:
                client = pool.acquire(deadline)
                try:
                    result = await op(client, *args)
                finally:
                    pool.release(client)
            except OverloadError as error:
                # A shed reply: retrying would feed the storm, so give up
                # on the server straight away.
                last_error = error
                self.shed_rpcs += 1
                break
            except DeadlineExceeded as error:
                last_error = error
                break
            except Exception as error:
                if not policy.retry.is_transient(error):
                    raise
                last_error = error
                self.transient_failures += 1
                breaker.record_failure()
                if sleeps is None:
                    sleeps = list(policy.retry.delays())
                if attempt >= len(sleeps):
                    break
                if not breaker.allow():
                    # The circuit tripped mid-loop: stop hammering.
                    break
                sleep = sleeps[attempt]
                if deadline is not None and not deadline.allows(sleep):
                    break
                if sleep > 0:
                    await asyncio.sleep(sleep)
            else:
                breaker.record_success()
                return result
        self.unavailable_rpcs += 1
        if degrade:
            return SERVER_UNAVAILABLE
        if last_error is not None:
            raise last_error
        raise TransportError(
            f"request deadline spent before cache server {server_id} answered"
        )
