"""The simulated web-server tier: a latency-model driver for Algorithm 2.

The retrieval *decisions* — routing against old/new epochs, digest
consultation, false-positive classification, dog-pile coalescing,
:class:`~repro.core.retrieval.FetchPath` accounting — live in the sans-IO
:class:`~repro.core.retrieval.RetrievalEngine`.  A :class:`WebServer` only
executes the engine's commands against the simulated substrate: it charges
latency-model samples to a virtual clock and performs the cache/database
calls the commands name.

One :class:`WebServer` drives every replication factor: the cluster's router
hands the engine each key's read plan (Section III-E's ``r`` replica rings
make it longer, nothing else), and :meth:`WebServer.put` runs the engine's
write plan through the same executor.

A web server owns no cluster state: it routes with the shared deterministic
router and consults the shared transition epoch
(:meth:`~repro.cache.cluster.CacheCluster.routing_epochs`), so any number
of web servers run the same logic and agree on every decision — the
paper's consistency objective.  The asyncio tier
(:class:`repro.net.webtier.AsyncProteusFrontend`) drives the *same* engine
over live TCP.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cache.cluster import CacheCluster
from repro.core.retrieval import (
    Command,
    DeleteMulti,
    FetchPath,  # noqa: F401  (tests and benches import it from here)
    FetchResult,
    FetchStats,
    LeaderWindowRegistry,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
    WaitForLeader,
    WriteBackMulti,
)
from repro.database.cluster import DatabaseCluster
from repro.errors import ConfigurationError
from repro.sim.latency import Constant, LatencyModel

#: Default one-way cache operation latency (LAN RTT + memcached service).
DEFAULT_CACHE_OP_LATENCY = 0.001
#: Default servlet CPU overhead per request.
DEFAULT_WEB_OVERHEAD = 0.002


class WebServer:
    """One servlet container driving the shared retrieval engine.

    Args:
        server_id: id within the web tier (mixed into its RNG's seed).
        cache: the cache tier (routing + transition epochs + servers).
        database: the authoritative sharded store.
        cache_latency: per-cache-operation latency model.
        web_overhead: per-request servlet processing model.
        seed: RNG seed for latency sampling.
        config: the engine options
            (:class:`~repro.core.retrieval.RetrievalConfig`; dog-pile
            coalescing is off by default, as in the paper's evaluation);
            the live object stays readable and settable as ``web.config``.
        admission: DB-path admission controller (a
            :class:`~repro.resilience.admission.VirtualQueueAdmission`),
            wired into the engine as ``engine.admission``; ``None`` admits
            everything.  When set, DB-path work over the depth bound is shed (:attr:`FetchPath.SHED`, value ``None``)
            while hits keep being served — the sim's queue-model mirror
            of the live frontend's admission control.
    """

    def __init__(
        self,
        server_id: int,
        cache: CacheCluster,
        database: DatabaseCluster,
        cache_latency: Optional[LatencyModel] = None,
        web_overhead: Optional[LatencyModel] = None,
        seed: int = 0,
        config: Optional[RetrievalConfig] = None,
        admission=None,
    ) -> None:
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id}")
        self.cache = cache
        self.database = database
        self.cache_latency = cache_latency or Constant(DEFAULT_CACHE_OP_LATENCY)
        self.web_overhead = web_overhead or Constant(DEFAULT_WEB_OVERHEAD)
        self.config = config if config is not None else RetrievalConfig()
        self.engine = RetrievalEngine(cache.router, config=self.config)
        self.engine.admission = admission
        self._rng = random.Random((seed << 16) ^ server_id)
        #: in-flight DB-fetch windows for dog-pile coalescing
        self._leaders = LeaderWindowRegistry()

    # ------------------------------------------------------------- facade

    @property
    def stats(self) -> FetchStats:
        """Per-path counters (owned by the engine)."""
        return self.engine.stats

    # ------------------------------------------------------------- helpers

    def _cache_op(self, now: float) -> float:
        """Advance time by one cache round trip."""
        return now + self.cache_latency.sample(self._rng)

    # ----------------------------------------------------------- Algorithm 2

    def fetch(self, key: str, now: float) -> FetchResult:
        """Retrieve *key*, migrating it on demand if a transition is live
        — a page of one."""
        return self.fetch_many((key,), now)[key]

    def fetch_many(
        self, keys: Iterable[str], now: float
    ) -> Dict[str, FetchResult]:
        """Retrieve a whole key set through the engine's planner.

        One logical page request: probes and write-backs are grouped per
        owning server, so the batch charges **one latency sample per server
        touched per round** instead of one per key — commands within a
        round model concurrent fan-out (the clock advances by the slowest
        command of the round, as a real multiget fan-out would).  The batch
        completes as a unit, so every key shares its completion time;
        values, paths, and :class:`FetchStats` counts are those of fetching
        the keys one by one.
        """
        epochs = self.cache.routing_epochs(now)
        clock = now + self.web_overhead.sample(self._rng)
        results, clock = self._run(
            self.engine.retrieve_many(keys, epochs, now=now), clock
        )
        for result in results.values():
            result.completed = clock
        return results

    def _run(self, steps, clock: float):
        """Drive an engine planner from *clock*: a round's commands start
        together and the clock advances by the slowest.  Returns (the
        planner's result, completion time)."""
        answers: Any = None
        try:
            while True:
                results = []
                done = clock
                for command in steps.send(answers):
                    answer, finished = self._execute(command, clock)
                    results.append(answer)
                    if finished > done:
                        done = finished
                clock = done
                answers = tuple(results)
        except StopIteration as stop:
            return stop.value, clock

    def _execute(self, command: Command, clock: float) -> Tuple[Any, float]:
        """Perform one engine command starting at *clock*; returns (answer,
        completion time).  Commands in a round all start at the round's
        base clock — they run concurrently."""
        if isinstance(command, ProbeCacheMulti):
            server = self.cache.server(command.server_id)
            clock = self._cache_op(clock)
            if not server.state.serves_requests:
                # Crashed/off server: the failed attempt still cost one
                # round trip; the engine degrades around the dead server.
                return SERVER_UNAVAILABLE, clock
            return server.get_many(command.keys, clock), clock
        if isinstance(command, WaitForLeader):
            leader_done = self._leaders.leader_done(command.key, clock)
            if leader_done is None:
                return False, clock
            return True, leader_done
        if isinstance(command, ReadDatabase):
            response = self.database.get(command.key, clock)
            clock = response.completion_time
            if self.engine.admission is not None:
                # The admitted read occupies a virtual queue slot until
                # its completion time — the depth the controller bounds.
                self.engine.admission.db_finished(clock)
            if command.announce_leader:
                # Followers arriving before the write-back lands coalesce.
                self._leaders.announce(
                    command.key, clock + 2 * self.cache_latency.mean, now=clock
                )
            return response.value, clock
        if isinstance(command, (WriteBackMulti, DeleteMulti)):
            clock = self._cache_op(clock)
            server = self.cache.server(command.server_id)
            if not server.state.serves_requests:
                return SERVER_UNAVAILABLE, clock  # it comes back cold
            if isinstance(command, DeleteMulti):
                for key in command.keys:
                    server.delete(key, clock)
            else:
                # A fill is a plain set here, deliberately: a sim fetch runs
                # to completion before any other event, so no write can
                # land inside it, and Fig. 9's dog pile rests on set.
                for key, value in command.items:
                    server.set(key, value, now=clock)
            return None, clock
        raise ConfigurationError(f"unknown engine command: {command!r}")

    # ---------------------------------------------------------------- writes

    def put(self, key: str, value: Any, now: float) -> List[int]:
        """Write *key* through (see :meth:`put_many`); returns the
        new-plan owners written, ring order."""
        return self.put_many(((key, value),), now)[key]

    def put_many(
        self, items: Iterable[Tuple[str, Any]], now: float
    ) -> Dict[str, List[int]]:
        """Run :meth:`RetrievalEngine.write_many`'s round from *now*: the
        value to every serving new-plan owner, a delete to every other
        copy.  Returns key -> new-plan owners written."""
        epochs = self.cache.routing_epochs(now)
        return self._run(self.engine.write_many(items, epochs), now)[0]
