"""An asyncio web tier driving Algorithm 2 against live memcached servers.

Completes the runnable substrate: where :mod:`repro.web.frontend` executes
the retrieval engine inside the simulator, :class:`AsyncProteusFrontend`
executes the *same* engine — the sans-IO
:class:`~repro.core.retrieval.RetrievalEngine` — over real TCP against
:class:`~repro.net.server.MemcachedServer` (or stock memcached, for the
standard commands) endpoints:

* routing by the deterministic Proteus placement;
* smooth scale-down/up: ``get SET_BLOOM_FILTER`` + ``get BLOOM_FILTER`` on
  every old owner (the digest broadcast, over the wire), then Algorithm 2
  per request until the TTL deadline passes — tracked by the same
  :class:`~repro.core.transition.TransitionManager` the simulator uses
  (a zero TTL is an abrupt transition: no broadcast, no drain);
* dog-pile coalescing (``RetrievalConfig(coalesce_misses=True)``):
  concurrent misses for one key await the leader's DB fetch on an
  :class:`asyncio.Future` instead of issuing duplicate reads;
* the backing database is an async callable (:data:`DatabaseFetch`), so
  tests plug in a dict and a deployment plugs in a real pool.

Every cache RPC — probe, fill, ``put``'s writes and deletes, and the
digest broadcast — goes through ``web.transport``, a
:class:`~repro.net.transport.CacheTransport` that owns the connection
pools and the :mod:`repro.resilience` stack (its "Fault tolerance"
section says how a fetch degrades around a dead server); a test swaps
that one object for a fake.  A page returns as soon as its values are
known: a read's fills (Algorithm 2's write-back) are issued through the
same admission step as every RPC, but nothing waits for them.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import suppress
from functools import partial
from typing import Awaitable, Callable, Dict, Iterable, Optional, Sequence
from typing import Tuple

from repro import obs
from repro.bloom.bloom import BloomFilter
from repro.bloom.config import BloomConfig
from repro.core.retrieval import (
    SERVER_UNAVAILABLE, Command, DeleteMulti, FetchResult, FetchStats,
    ProbeCacheMulti, ReadDatabase, RetrievalConfig, RetrievalEngine,
    WaitForLeader, WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import Transition, TransitionManager
from repro.errors import ConfigurationError, DigestBroadcastError
from repro.errors import TransportError
from repro.net.round import run_reads, run_round
from repro.net.transport import CacheTransport
from repro.resilience import Deadline, ResiliencePolicy

#: async database fetch: key -> value bytes (authoritative, never misses).
#: A page's reads run on its task, sharing its ``contextvars`` context, until
#: one waits; that read finishes there and each later one gets a task of its
#: own, so an ``asyncio.timeout()`` in a read cancels only that read.
DatabaseFetch = Callable[[str], Awaitable[bytes]]
Leaders = Dict[str, asyncio.Future]  #: key -> its leading page's future


class AsyncProteusFrontend:
    """Algorithm 2 over TCP memcached endpoints.

    Args:
        endpoints: ``(host, port)`` per cache server, in provisioning order.
        bloom_config: the cluster-wide digest geometry (web servers know it
            out of band, as in the paper).
        database: async authoritative fetch.
        initial_active: ``n(0)``.
        clock: time source for TTL deadlines (injectable in tests).
        config: the engine options
            (:class:`~repro.core.retrieval.RetrievalConfig`); the live
            object stays readable and settable as ``web.config``.
        resilience: retry/breaker/deadline policy for cache RPCs;
            :meth:`ResiliencePolicy.default` when omitted.
        pool_size: handed to the
            :class:`~repro.net.transport.CacheTransport`.
        admission: DB-path admission controller (a
            :class:`~repro.resilience.VirtualQueueAdmission`) wired into
            the engine as ``engine.admission``; ``None`` admits
            everything.  Shed DB work answers ``None`` with
            :attr:`FetchPath.SHED` — hits are always served.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        bloom_config: BloomConfig,
        database: DatabaseFetch,
        initial_active: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        config: Optional[RetrievalConfig] = None,
        resilience: Optional[ResiliencePolicy] = None,
        pool_size: int = 4,
        admission=None,
    ) -> None:
        if not endpoints:
            raise ConfigurationError("need at least one cache endpoint")
        self.endpoints = list(endpoints)
        self.bloom_config = bloom_config
        self.database = database
        self.router = ProteusRouter(len(self.endpoints))
        self.config = config if config is not None else RetrievalConfig()
        self.engine = RetrievalEngine(self.router, config=self.config)
        self._clock = clock
        active = len(self.endpoints) if initial_active is None else initial_active
        self._manager = TransitionManager(active, len(self.endpoints))
        self._begun = 0  # transitions begun: a page's fills check it
        #: key -> future resolved when the leader's fill lands
        self._inflight: Dict[str, asyncio.Future] = {}
        self.resilience = resilience or ResiliencePolicy.default()
        self.engine.admission = admission
        #: the one path to the cache servers: pools, breakers and their
        #: counters (swap it for a fake in tests)
        self.transport = CacheTransport(
            self.endpoints, self.resilience, clock, pool_size=pool_size
        )

    # ------------------------------------------------------------- facade

    @property
    def n_active(self) -> int:
        """The committed active count (the new mapping's ``n``)."""
        return self._manager.active_count

    @property
    def stats(self) -> FetchStats:
        """Per-path counters (owned by the engine), same
        :class:`FetchPath` keys as the simulator's."""
        return self.engine.stats

    def transport_stats(self) -> Dict[str, int]:
        """The transport's counters plus the engine's shed fetches (all
        monotonic)."""
        shed = self.engine.stats.shed
        return {**self.transport.stats(), "shed_fetches": shed}

    # ----------------------------------------------------------- lifecycle

    async def connect(self) -> "AsyncProteusFrontend":
        """Dial the cache servers (see :meth:`CacheTransport.connect`)."""
        await self.transport.connect()
        return self

    async def close(self) -> None:
        await self.transport.close()

    async def __aenter__(self) -> "AsyncProteusFrontend":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ----------------------------------------------------------- transitions

    async def scale_to(self, n_new: int, ttl: float) -> Optional[Transition]:
        """Begin a transition to *n_new* with a *ttl* drain window:
        broadcast digests, flip routing.  Returns ``None`` for a no-op.
        The caller powers servers up/down at the deadline.

        Digests come only from the *ceding* servers
        (:meth:`~repro.core.router.Router.ceding_servers`: for a Proteus
        scale-down, the draining ones); ``ttl == 0`` is an abrupt
        transition, with no digests and no drain window.  A scale-up
        empties every joining server (:meth:`CacheTransport.flush`): a
        copy it kept from before it drained may be stale.  Each snapshot
        and flush lands after every fill issued to its server before this
        call.  The pass is all-or-nothing: if any server cannot answer,
        :class:`~repro.errors.DigestBroadcastError` is raised *before*
        routing is armed (and a ``transition.rollback`` event emitted),
        naming the failures per server, and the caller may retry
        (snapshots and flushes that did land are harmless).
        """
        now = self._clock()
        if not self._manager.check(n_new, now, ttl):
            return None
        n_old = self.n_active
        ceding = self.router.ceding_servers(n_old, n_new) if ttl > 0 else []
        joining = range(n_old, n_new)  # empty on a scale-down
        digests: Dict[int, BloomFilter] = {}
        failures: Dict[int, BaseException] = {}
        for server_id in [*ceding, *joining]:
            try:
                if server_id in joining:
                    await self.transport.flush(server_id)
                    continue
                digests[server_id] = await self.transport.digest(
                    server_id, self.bloom_config
                )
            except Exception as error:
                if not self.resilience.retry.is_transient(error):
                    raise
                failures[server_id] = error
        if failures:
            detail = "; ".join(
                f"server {server_id}: {type(error).__name__}: {error}"
                for server_id, error in sorted(failures.items())
            )
            obs.emit("transition.rollback", now, n_old=n_old, n_new=n_new,
                     failed=sorted(failures))
            raise DigestBroadcastError(
                f"digest broadcast or flush failed on {len(failures)}/"
                f"{len(ceding) + len(joining)} servers, transition not "
                f"started ({detail})",
                failures=failures,
            )
        self._begun += 1
        return self._manager.begin(n_new, now, ttl, digests)

    # ------------------------------------------------------------ Algorithm 2

    async def fetch(self, key: str) -> FetchResult:
        """Retrieve *key* — a page of one; returns the unified
        :class:`~repro.core.retrieval.FetchResult`, the same type the
        simulated tier returns, timed against this frontend's clock.

        ``result.path`` is a :class:`~repro.core.retrieval.FetchPath` — a
        ``str`` subclass, so comparisons against the wire labels
        (``"hit_new"``, ...) keep working.
        """
        return (await self.fetch_many((key,)))[key]

    async def fetch_many(self, keys: Iterable[str]) -> Dict[str, FetchResult]:
        """Retrieve a whole key set with at most one ``get_multi`` round
        trip per probed server per routing epoch.

        Drives :meth:`RetrievalEngine.retrieve_many`: a round's commands
        execute concurrently on this page's own task
        (:func:`~repro.net.round.run_round`; a round of one is simply
        awaited), so probes of different servers overlap the way
        spymemcached pipelines a page's lookups; database reads, as
        :data:`DatabaseFetch` says.  The fill round is issued
        (:meth:`CacheTransport.fill`), not awaited — or dropped, as later
        misses, once a transition began since the page did: a fill planned
        under an older mapping could land where a later ``put`` deleted it.
        """
        started, begun = self._clock(), self._begun
        epochs = self._manager.routing_counts(started)
        deadline = None if self.resilience.request_budget is None \
            else self.resilience.new_deadline(self._clock)
        steps = self.engine.retrieve_many(keys, epochs, now=started)
        answers = None
        leaders: Leaders = {}
        try:
            while True:
                round_ = steps.send(answers)
                if type(round_[0]) is WriteBackMulti:  # a read's fills
                    answers = [self.transport.fill(
                        c.server_id, c.items, deadline, self._then(c, leaders)
                    ) if self._begun == begun else SERVER_UNAVAILABLE
                        for c in round_]
                    continue
                calls = [self._execute(command, leaders, deadline)
                         for command in round_]
                reads = isinstance(round_[0], ReadDatabase)
                try:  # a round of one needs no driver
                    answers = (await calls[0],) if len(calls) == 1 else \
                        await (run_reads if reads else run_round)(calls)
                finally:  # every admitted read's slot, started or not
                    if reads and self.engine.admission is not None:
                        for _ in calls:
                            self.engine.admission.db_finished(self._clock())
        except StopIteration as stop:
            results = stop.value
        finally:  # leaders no fill carries: the page is done with them
            if leaders:
                self._resolve(leaders.items())
        completed = self._clock()
        for result in results.values():
            result.completed = completed
        return results

    def _execute(self, command: Command, leaders: Leaders,
                 deadline: Optional[Deadline] = None) -> Awaitable:
        """One engine command's coroutine (a cache command's is its RPC)."""
        if isinstance(command, ProbeCacheMulti):
            return self.transport.get_multi(command.server_id, command.keys,
                                            deadline)
        if isinstance(command, WriteBackMulti):  # a put's write
            return self.transport.set_multi(command.server_id, command.items,
                                            deadline)
        if isinstance(command, DeleteMulti):
            return self.transport.delete_multi(command.server_id,
                                               command.keys, deadline)
        if isinstance(command, WaitForLeader):
            return self._wait_for_leader(command.key, leaders)
        if isinstance(command, ReadDatabase):
            return self._read_database(command, leaders)
        raise ConfigurationError(f"unknown engine command: {command!r}")

    async def _wait_for_leader(self, key: str, leaders: Leaders) -> bool:
        pending = self._inflight.get(key)
        if pending is None:
            # Claim leadership in the same loop step as the check: a
            # concurrent page must not also find "no leader" before this
            # one's ReadDatabase round gets to run.
            self._lead(key, leaders)
            return False
        await asyncio.shield(pending)
        return True

    async def _read_database(self, command: ReadDatabase, leaders: Leaders):
        if command.announce_leader:
            self._lead(command.key, leaders)
        return await self.database(command.key)

    def _then(self, fill: WriteBackMulti, leaders: Leaders):
        """What runs once *fill* lands: a follower that waited on a key
        this page leads must find the value when it re-probes, so those
        leaders resolve only then (``None``: the fill leads nothing)."""
        led = [(key, leaders.pop(key)) for key in fill.keys if key in leaders]
        return partial(self._resolve, led) if led else None

    def _resolve(self, led) -> None:
        """Resolve each ``(key, leader)`` of *led* and retire it."""
        for key, leader in led:
            if self._inflight.get(key) is leader:
                del self._inflight[key]
            if not leader.done():
                leader.set_result(None)

    def _lead(self, key: str, leaders: Leaders) -> None:
        """Publish this page as *key*'s in-flight leader unless one exists
        (resolved once its fill lands, see :meth:`_then`)."""
        if key not in self._inflight:
            leader = asyncio.get_running_loop().create_future()
            self._inflight[key] = leader
            leaders[key] = leader

    async def put(self, key: str, value: bytes) -> None:
        """Write through: :meth:`RetrievalEngine.write_many`'s round of
        armored RPCs — the value to the new owner, a delete to every other
        copy.  Raises :class:`~repro.errors.TransportError` naming every
        server that answered ``SERVER_UNAVAILABLE`` (an open circuit is
        refused without a dial)."""
        epochs = self._manager.routing_counts(self._clock())
        steps = self.engine.write_many(((key, value),), epochs)
        round_ = next(steps)
        answers = await run_round(
            [self._execute(command, {}) for command in round_]
        )
        with suppress(StopIteration):
            steps.send(answers)
        failed = [command.server_id for command, answer in zip(round_, answers)
                  if answer is SERVER_UNAVAILABLE]
        if failed:
            raise TransportError(f"put {key!r}: servers {failed} unavailable")
