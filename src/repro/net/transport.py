"""The one path from the live web tier to a cache server.

:class:`CacheTransport` fronts each endpoint with a
:class:`~repro.net.pool.ConnectionPool` of pipelined
:class:`~repro.net.client.MemcachedClient` connections (``pool_size``
per server, lazily dialled — the way the paper's web tier pools its
spymemcached connections).  A test swaps the whole object
(``web.transport = fake``): the frontend only calls the seam methods
:meth:`get_multi`, :meth:`fill`, :meth:`set_multi`, :meth:`delete_multi`,
:meth:`digest` and :meth:`flush`.

Fault tolerance
---------------

Every RPC is admitted by one step, :meth:`_lease` — a spent
:class:`~repro.resilience.Deadline` or a refusing
:class:`~repro.resilience.CircuitBreaker` answers before any dial, else a
connection is leased — and all but a read's fill then run through the one
retry loop, :meth:`_call`: each attempt is admitted and leased afresh (no
lease is held across a backoff sleep), transient faults are retried with
the policy's seeded backoff unless the sleep would overrun the deadline,
and :class:`~repro.errors.OverloadError` answers (``SERVER_ERROR busy``,
counted in ``shed_rpcs``) are never retried, so a storm cannot amplify
through here.  A fill (:meth:`fill`) is issued and not awaited: it fails
only at issue, and a lost fill is a later miss.  Nothing here sheds for
concurrency: past the pool's bound, RPCs share pipelined connections.

The engine's RPCs answer ``SERVER_UNAVAILABLE`` instead of raising, and
Algorithm 2 degrades — a dead new owner forces a database read
(``FetchPath.DEGRADED_DB``), a dead old owner skips the migration probe,
a failed fill is recorded but never fails the fetch; a ``put`` names the
servers that answered so in its ``TransportError``.  :meth:`digest` and
:meth:`flush` serve an all-or-nothing resize, so they raise.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import BloomConfig
from repro.core.retrieval import SERVER_UNAVAILABLE
from repro.errors import ConfigurationError, OverloadError, TransportError
from repro.net.client import MemcachedClient
from repro.net.pool import ConnectionPool
from repro.resilience import BreakerState, CircuitBreaker, Deadline
from repro.resilience import ResiliencePolicy

#: what a fence reads: a key no page stores
FENCE_KEY = "proteus:fence"

__all__ = ["CacheTransport"]


async def _snapshot_and_fetch(
    client: MemcachedClient, bloom_config: BloomConfig
) -> BloomFilter:
    # Two sequential exchanges on one connection: replies are matched
    # FIFO, so other tasks' traffic cannot reorder snapshot and fetch.
    await client.snapshot_digest()
    return await client.fetch_digest(
        bloom_config.num_counters, bloom_config.num_hashes
    )


async def _delete_each(client: MemcachedClient, keys) -> int:
    # memcached has no multi-key delete: one exchange per key; deleting
    # is idempotent, so the batch retries as a unit.
    return sum([await client.delete(key) for key in keys])


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
        # per server, the connections that carried a fill since its fence
        self._filled: List[Dict] = [{} for _ in endpoints]
        #: cache RPCs that could not be completed (degraded or raised)
        self.unavailable_rpcs = 0
        #: transient cache-RPC failures observed (pre-retry, per attempt)
        self.transient_failures = 0
        #: cache RPCs a server shed (``SERVER_ERROR busy``) — never retried
        self.shed_rpcs = 0

    # ----------------------------------------------------------- lifecycle

    async def connect(self) -> None:
        """Create one connection pool per endpoint and prewarm each.  An
        endpoint that refuses the dial keeps its pool (it dials lazily)
        and its breaker absorbs the failure."""
        for index, (host, port) in enumerate(self.endpoints):
            if self.pools[index] is None:
                self.pools[index] = ConnectionPool(
                    host, port, size=self.pool_size,
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
                self._filled[index].clear()  # closed: no fence may redial

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
            "pool_leases_peak": max((p.leases_peak for p in pools), default=0),
            "unavailable_rpcs": self.unavailable_rpcs,
            "transient_failures": self.transient_failures,
            "shed_rpcs": self.shed_rpcs,
        }

    # ---------------------------------------------------------------- RPCs

    def get_multi(self, server_id: int, keys, deadline=None):
        """The hits among *keys* as ``{key: value}``, or
        ``SERVER_UNAVAILABLE``."""
        return self._call(
            server_id, deadline, True, MemcachedClient.get_multi, keys
        )

    def set_multi(self, server_id: int, items, deadline=None):
        """Store every ``(key, value)`` of *items* (a put's write);
        ``SERVER_UNAVAILABLE`` when the server cannot take them."""
        return self._call(
            server_id, deadline, True, MemcachedClient.set_multi, items
        )

    def fill(self, server_id: int, items, deadline=None, then=None):
        """Issue a read's fill (``add`` every item, see
        :meth:`MemcachedClient.fill`) and answer at once: ``None``, or
        ``SERVER_UNAVAILABLE`` — then ``then()`` runs now — when it cannot
        be issued.  Never dials, never retries."""
        client = self._lease(server_id, deadline, trial=False)
        if client is not None:
            try:
                client.fill(items, then)
                filled = self._filled[server_id]
                filled[client] = None
                if len(filled) > self.pool_size:  # forget the broken ones
                    self._filled[server_id] = {
                        c: None for c in filled if not c.broken}
                return None
            except TransportError:  # no live stream
                pass
            finally:
                self.pools[server_id].release(client)
        self.unavailable_rpcs += 1
        if then is not None:
            then()
        return SERVER_UNAVAILABLE

    def delete_multi(self, server_id: int, keys, deadline=None):
        """Delete every key of *keys* (a write's invalidations);
        ``SERVER_UNAVAILABLE`` when the server cannot take them."""
        return self._call(server_id, deadline, True, _delete_each, keys)

    def digest(self, server_id: int, bloom_config: BloomConfig):
        """Snapshot + fetch one server's digest on one lease (the pair is
        idempotent, so it retries as a unit)."""
        return self._fenced(server_id, _snapshot_and_fetch, bloom_config)

    def flush(self, server_id: int):
        """Empty one server (``flush_all``), as a scale-up does to each
        joining server."""
        return self._fenced(server_id, MemcachedClient.flush_all)

    async def _fenced(self, server_id: int, op, *args):
        """*op* as an RPC that raises when it cannot complete, ordered
        after every fill issued to *server_id* so far: a server answers
        one connection's commands in order, so one round trip on each
        connection that carried a fill suffices (a broken one lost its
        fills with its stream)."""
        filled, self._filled[server_id] = self._filled[server_id], {}
        await asyncio.gather(*(
            client.get(FENCE_KEY) for client in filled if not client.broken
        ), return_exceptions=True)
        return await self._call(server_id, None, False, op, *args)

    def _lease(self, server_id: int, deadline: Optional[Deadline],
               trial: bool = True) -> Optional[MemcachedClient]:
        """The admission step of every RPC: ``None`` when the *deadline*
        is spent or the breaker refuses, else a connection leased from
        the server's pool.  A fill, which never reports back, is no
        half-open circuit's *trial*: it passes only a closed one."""
        if deadline is not None and deadline.expired():
            return None
        breaker = self.breakers[server_id]
        # The breaker reads its own clock only when it is not closed.
        if not (breaker.allow() if trial else
                breaker.state() is BreakerState.CLOSED):
            return None
        pool = self.pools[server_id]
        if pool is None:
            raise ConfigurationError(
                f"no connection pool for cache server {server_id}; "
                "call connect()"
            )
        return pool.acquire()

    async def _call(self, server_id: int, deadline: Optional[Deadline],
                    degrade: bool, op: Callable[..., Any], *args) -> Any:
        """``await op(client, *args)`` under the retry policy, each
        attempt admitted and leased afresh (:meth:`_lease`; a refusal ends
        the loop).  With *degrade* an RPC that could not be completed
        answers ``SERVER_UNAVAILABLE``; without it the last transient
        error (or the refusal) raises.  Fatal errors (anything the policy
        does not classify transient) always propagate."""
        policy = self.policy
        breaker = self.breakers[server_id]
        sleeps: Optional[List[float]] = None  # drawn on first failure
        last_error: Optional[BaseException] = None
        for attempt in range(policy.retry.max_attempts):
            try:
                client = self._lease(server_id, deadline)
                if client is None:
                    break
                try:
                    result = await op(client, *args)
                finally:
                    self.pools[server_id].release(client)
            except OverloadError as error:
                # A shed reply: retrying would feed the storm, so give up
                # on the server straight away.
                last_error = error
                self.shed_rpcs += 1
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
            f"circuit open or deadline spent for cache server {server_id}"
        )
