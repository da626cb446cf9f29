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
  :class:`~repro.core.transition.TransitionManager` the simulator uses;
* dog-pile coalescing (``RetrievalConfig(coalesce_misses=True)``):
  concurrent misses for one key await the leader's DB fetch on an
  :class:`asyncio.Future` instead of issuing duplicate reads;
* the backing database is an async callable, so tests plug in a dict and a
  deployment plugs in a real pool.

Every cache RPC — probe, write-back, ``put``'s writes and deletes, and the
digest broadcast — goes through ``web.transport``, a
:class:`~repro.net.transport.CacheTransport`: it owns the connection
pools and the :mod:`repro.resilience` stack (its "Fault tolerance"
section says how a fetch degrades around a dead server), and a test
swaps that one object for a fake.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import suppress
from typing import (
    Awaitable, Callable, Dict, Iterable, Optional, Sequence, Tuple,
)

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import BloomConfig
from repro.core.retrieval import (
    SERVER_UNAVAILABLE, Command, DeleteMulti, FetchResult, FetchStats,
    ProbeCacheMulti, ReadDatabase, RetrievalConfig, RetrievalEngine,
    WaitForLeader, WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import Transition, TransitionManager
from repro.errors import (
    ConfigurationError, DigestBroadcastError, TransitionError, TransportError,
)
from repro.net.round import run_round
from repro.net.transport import CacheTransport
from repro.resilience import Deadline, ResiliencePolicy

#: async database fetch: key -> value bytes (authoritative, never misses)
DatabaseFetch = Callable[[str], Awaitable[bytes]]


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
        admission: DB-path admission controller (an
            :class:`~repro.resilience.AdmissionController`) wired into
            the engine; ``None`` admits everything.  Shed DB work
            answers ``None`` with :attr:`FetchPath.SHED` — hits are
            always served.
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
        if not 1 <= active <= len(self.endpoints):
            raise ConfigurationError(f"initial_active out of range: {active}")
        self._manager = TransitionManager(active)
        #: key -> future resolved when the leader's write-back lands
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

    @property
    def admission(self):
        """The engine's DB-path admission controller (may be ``None``)."""
        return self.engine.admission

    def queue_depth(self, now: Optional[float] = None) -> float:
        """Outstanding admitted DB work (0 without admission) — the
        gauge health monitors watch alongside the shed rate."""
        if self.engine.admission is None:
            return 0.0
        return self.engine.admission.depth(
            self._clock() if now is None else now
        )

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

    async def scale_to(self, n_new: int, ttl: float) -> Transition:
        """Begin a smooth transition: broadcast digests, flip routing.

        The caller is responsible for actually powering servers up/down at
        the deadline (the actuator's job); the frontend only needs the
        routing epochs and the digests.

        Digests are requested only from the *ceding* servers — the old
        owners the router reports may lose keys
        (:meth:`~repro.core.router.Router.ceding_servers`); for Proteus
        scale-down that is exactly the draining servers.  A scale-up also
        empties every joining server (:meth:`CacheTransport.flush`), as
        powering it on would: a copy it kept from before it drained may
        be stale.  The pass is all-or-nothing: each digest and each flush
        is one RPC (breaker, retry and budget as for any other), and if
        any server cannot answer — a dead one's circuit may already be
        open — :class:`~repro.errors.DigestBroadcastError` (a
        :class:`~repro.errors.TransitionError`) is raised *before* the
        transition manager is armed — routing state rolls back to exactly
        what it was, the failures are reported per server, and the caller
        may simply retry ``scale_to``.  (Snapshots and flushes on the
        servers that did answer are harmless: none of them is routed to.)
        """
        if not 1 <= n_new <= len(self.endpoints):
            raise TransitionError(f"n_new out of range: {n_new}")
        if ttl <= 0:
            raise TransitionError(f"ttl must be positive, got {ttl}")
        now = self._clock()
        if self._manager.in_transition(now):
            raise TransitionError("previous drain window still open")
        if n_new == self.n_active:
            raise TransitionError("already at the requested size")
        n_old = self.n_active
        ceding = self.router.ceding_servers(n_old, n_new)
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
            raise DigestBroadcastError(
                f"digest broadcast or flush failed on {len(failures)}/"
                f"{len(ceding) + len(joining)} servers, transition not "
                f"started ({detail})",
                failures=failures,
            )
        self._manager.ttl = ttl
        return self._manager.begin(n_new, now, digests=digests, ceding=ceding)

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
        spymemcached pipelines a page's lookups.  Only database reads —
        the caller's coroutines — get a task each.
        """
        started = self._clock()
        epochs = self._manager.routing_counts(started)
        deadline = self.resilience.new_deadline(self._clock)
        steps = self.engine.retrieve_many(keys, epochs, now=started)
        answers = None
        leaders: Dict[str, asyncio.Future] = {}
        try:
            while True:
                round_ = steps.send(answers)
                calls = [
                    self._execute(command, leaders, deadline)
                    for command in round_
                ]
                if len(calls) == 1:  # a round of one needs no driver
                    answers = (await calls[0],)
                elif isinstance(round_[0], ReadDatabase):
                    answers = await asyncio.gather(*calls)
                else:
                    answers = await run_round(calls)
        except StopIteration as stop:
            results = stop.value
        finally:
            # Resolve leaders only after the write-back landed (or the
            # fetch failed), so followers re-probing the new owner find it.
            for key, leader in leaders.items():
                if self._inflight.get(key) is leader:
                    del self._inflight[key]
                if not leader.done():
                    leader.set_result(None)
        completed = self._clock()
        for result in results.values():
            result.completed = completed
        return results

    async def _execute(
        self,
        command: Command,
        leaders: Dict[str, asyncio.Future],
        deadline: Optional[Deadline] = None,
    ):
        """Perform one engine command."""
        if isinstance(command, ProbeCacheMulti):
            return await self.transport.get_multi(
                command.server_id, command.keys, deadline
            )
        if isinstance(command, WaitForLeader):
            pending = self._inflight.get(command.key)
            if pending is None:
                # Claim leadership in the same loop step as the check: a
                # concurrent page must not also find "no leader" before
                # this one's ReadDatabase round gets to run.
                self._lead(command.key, leaders)
                return False
            await asyncio.shield(pending)
            return True
        if isinstance(command, ReadDatabase):
            key = command.key
            if command.announce_leader:
                self._lead(key, leaders)
            try:
                return await self.database(key)
            finally:
                if self.engine.admission is not None:
                    # Free the admitted slot even on DB failure.
                    finished = self._clock()
                    self.engine.admission.db_finished(
                        finished, completed=finished
                    )
        if isinstance(command, WriteBackMulti):
            # A fill is ``add``: it never replaces a put that landed while
            # its database read was in flight (the look-aside fill race).
            return await self.transport.set_multi(
                command.server_id, command.items, deadline,
                verb="set" if command.overwrite else "add",
            )
        if isinstance(command, DeleteMulti):
            return await self.transport.delete_multi(
                command.server_id, command.keys, deadline
            )
        raise ConfigurationError(f"unknown engine command: {command!r}")

    def _lead(self, key: str, leaders: Dict[str, asyncio.Future]) -> None:
        """Publish this page as *key*'s in-flight leader unless one exists
        (``fetch_many`` resolves ``leaders`` once its write-backs land)."""
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
        failed = [
            command.server_id
            for command, answer in zip(round_, answers)
            if answer is SERVER_UNAVAILABLE
        ]
        if failed:
            raise TransportError(f"put {key!r}: servers {failed} unavailable")
