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
make it longer, nothing else), and :meth:`WebServer.put` writes through to
the same owners.

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
    CheckDigestMulti,
    Command,
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
from repro.core.transition import RoutingEpochs
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
        server_id: id within the web tier (diagnostics only).
        cache: the cache tier (routing + transition epochs + servers).
        database: the authoritative sharded store.
        cache_latency: per-cache-operation latency model.
        web_overhead: per-request servlet processing model.
        seed: RNG seed for latency sampling.
        coalesce_misses: dog-pile protection (see
            :class:`~repro.core.retrieval.RetrievalConfig`); off by default
            as in the paper's evaluation.
        config: full engine options (overrides *coalesce_misses*); the
            live object stays readable and settable as ``web.config``.
        admission: DB-path admission controller (typically a
            :class:`~repro.resilience.admission.VirtualQueueAdmission`);
            ``None`` admits everything.  When set, DB-path work over the
            depth bound is shed (:attr:`FetchPath.SHED`, value ``None``)
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
        coalesce_misses: bool = False,
        config: Optional[RetrievalConfig] = None,
        admission=None,
    ) -> None:
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id}")
        self.server_id = server_id
        self.cache = cache
        self.database = database
        self.cache_latency = cache_latency or Constant(DEFAULT_CACHE_OP_LATENCY)
        self.web_overhead = web_overhead or Constant(DEFAULT_WEB_OVERHEAD)
        self.config = (
            config
            if config is not None
            else RetrievalConfig(coalesce_misses=coalesce_misses)
        )
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

    @property
    def admission(self):
        """The engine's DB-path admission controller (may be ``None``)."""
        return self.engine.admission

    def queue_depth(self, now: float) -> float:
        """Outstanding admitted DB work at *now* (0 without admission)."""
        if self.engine.admission is None:
            return 0.0
        return self.engine.admission.depth(now)

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
        steps = self.engine.retrieve_many(keys, epochs, now=now)
        answers: Any = None
        try:
            while True:
                results = []
                done = clock
                for command in steps.send(answers):
                    answer, finished = self._execute(command, epochs, clock)
                    results.append(answer)
                    if finished > done:
                        done = finished
                clock = done
                answers = tuple(results)
        except StopIteration as stop:
            results = stop.value
        for result in results.values():
            result.completed = clock
        return results

    def _execute(
        self, command: Command, epochs: RoutingEpochs, clock: float
    ) -> Tuple[Any, float]:
        """Perform one engine command starting at *clock*; returns (answer,
        completion time).  Commands in a round all start at the round's
        base clock — they run concurrently."""
        if isinstance(command, ProbeCacheMulti):
            server = self.cache.server(command.server_id)
            asked = clock
            clock = self._cache_op(clock)
            if not server.state.serves_requests:
                # Crashed/off server: the failed attempt still cost one
                # round trip; the engine degrades around the dead server.
                return SERVER_UNAVAILABLE, clock
            if self.config.load_aware:
                # The d-choices load score scales with observed latency.
                self.engine.armor.loads.observe_latency(
                    command.server_id, clock - asked
                )
            hits = {}
            for key in command.keys:
                value = server.get(key, clock)
                if value is not None:
                    hits[key] = value
            return hits, clock
        if isinstance(command, CheckDigestMulti):
            # Local bit tests against the broadcast snapshot — no round
            # trip, no clock charge.
            transition = epochs.transition
            if transition is None:
                return [False] * len(command.keys), clock
            return (
                transition.digest_hit_many(command.server_id, command.keys),
                clock,
            )
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
                self.engine.admission.db_finished(clock, completed=clock)
            if command.announce_leader:
                # Followers arriving before the write-back lands coalesce.
                self._leaders.announce(
                    command.key, clock + 2 * self.cache_latency.mean, now=clock
                )
            return response.value, clock
        if isinstance(command, WriteBackMulti):
            clock = self._cache_op(clock)
            server = self.cache.server(command.server_id)
            if not server.state.serves_requests:
                return SERVER_UNAVAILABLE, clock
            for key, value in command.items:
                server.set(key, value, now=clock)
            return None, clock
        raise ConfigurationError(f"unknown engine command: {command!r}")

    # ---------------------------------------------------------------- writes

    def put(self, key: str, value: Any, now: float) -> List[int]:
        """Write *key* to every serving owner in its read plan; returns
        them, ring order."""
        return self.put_many(((key, value),), now)[key]

    def put_many(
        self, items: Iterable[Tuple[str, Any]], now: float
    ) -> Dict[str, List[int]]:
        """Batched :meth:`put`; returns key -> servers written.  Duplicate
        keys collapse: the last value wins and the key is written once."""
        final = dict(items)
        plans = self.cache.router.read_plans(
            list(final), self.cache.routing_epochs(now).new
        )
        written: Dict[str, List[int]] = {}
        for (key, value), plan in zip(final.items(), plans):
            written[key] = []
            for server_id in plan:
                server = self.cache.server(server_id)
                if server.state.serves_requests:
                    server.set(key, value, now=now)
                    written[key].append(server_id)
            if self.config.hot_key_cache:
                # Digest-style invalidation: the local hot-key copy is
                # stale the moment the authoritative owners change.
                self.engine.armor.invalidate(key)
        return written
