"""Failure-injection experiment: crashes under load, with and without replicas.

Extends the paper's Section III-E design into a measurable experiment: a
closed-loop population drives a replicated cache tier while a crash/repair
schedule runs; the report shows the database-fallback rate over time — the
spike at each crash, its height as a function of the replication factor
(Eq. 3), and the recovery after repair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.bloom.config import BloomConfig, optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.ring import ProteusBackend
from repro.core.router import RingRouter
from repro.database.cluster import DatabaseCluster
from repro.errors import ConfigurationError
from repro.resilience import FaultSchedule
from repro.sim.events import EventLoop
from repro.sim.metrics import SlottedRecorder, TimeSeries
from repro.web.frontend import WebServer
from repro.workload.synthetic import UserPopulation


@dataclass(frozen=True)
class FailureEvent:
    """One injected fault: a crash at *when*, optionally repaired later."""

    when: float
    server_id: int
    repair_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.when < 0:
            raise ConfigurationError(f"when must be >= 0, got {self.when}")
        if self.repair_at is not None and self.repair_at <= self.when:
            raise ConfigurationError("repair_at must be after the crash")


def failure_events_from_schedule(schedule: FaultSchedule) -> List[FailureEvent]:
    """Convert a shared :class:`~repro.resilience.FaultSchedule` to the
    simulator's crash/repair events.

    Only the ``kills_server`` plans map — a crash is the simulator's whole
    fault vocabulary; delay/reset/partial-write plans have no sim
    equivalent and are skipped.  This is the bridge that lets a chaos test
    hand the *same scripted outage* to both substrates and compare their
    degraded-path accounting.
    """
    events = []
    for entry in schedule.entries:
        if entry.plan.kills_server:
            events.append(
                FailureEvent(
                    when=entry.at,
                    server_id=entry.server_id,
                    repair_at=entry.clear_at,
                )
            )
    return events


@dataclass
class FailoverConfig:
    """Knobs for one failure-injection run."""

    duration: float = 120.0
    num_servers: int = 8
    replicas: int = 2
    num_users: int = 80
    catalogue_size: int = 6000
    cache_capacity_bytes: int = 4096 * 2000
    pages_per_user: int = 30
    think_time: float = 0.5
    #: drain-window length for smooth transitions (flows to the cache tier
    #: like :attr:`ExperimentConfig.ttl`; previously hardcoded at 60 s).
    ttl_seconds: float = 60.0
    failures: List[FailureEvent] = field(default_factory=list)
    slot_seconds: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ttl_seconds <= 0:
            raise ConfigurationError(
                f"ttl_seconds must be > 0, got {self.ttl_seconds}"
            )
        for event in self.failures:
            if not 0 <= event.server_id < self.num_servers:
                raise ConfigurationError(
                    f"failure targets unknown server {event.server_id}"
                )
            if event.when >= self.duration:
                raise ConfigurationError("failure scheduled after the run ends")


@dataclass
class FailoverReport:
    """Measurements of one run."""

    replicas: int
    total_requests: int
    db_reads: int
    failovers: int
    #: per-slot fraction of requests that fell through to the database
    db_fraction: TimeSeries
    #: per-slot failover counts
    failover_series: TimeSeries

    @property
    def overall_db_fraction(self) -> float:
        return self.db_reads / self.total_requests if self.total_requests else 0.0

    def peak_db_fraction(self) -> float:
        """Worst slot — the crash spike height."""
        return max(self.db_fraction.values) if len(self.db_fraction) else 0.0


class FailoverExperiment:
    """Closed-loop load + a crash/repair schedule over a replicated tier."""

    def __init__(self, config: FailoverConfig) -> None:
        self.config = config
        router = RingRouter(
            ProteusBackend(config.num_servers, 2 ** 24), replicas=config.replicas
        )
        bloom: BloomConfig = optimal_config(
            max(1024, config.cache_capacity_bytes // 4096)
        )
        self.cache = CacheCluster(
            router,
            capacity_bytes=config.cache_capacity_bytes,
            ttl=config.ttl_seconds,
            bloom_config=bloom,
        )
        self.database = DatabaseCluster(4, seed=config.seed)
        self.web = WebServer(0, self.cache, self.database, seed=config.seed)
        self.population = UserPopulation(
            config.catalogue_size,
            pages_per_user=config.pages_per_user,
            think_time=config.think_time,
            seed=config.seed,
        )
        self.loop = EventLoop()
        self._rng = random.Random(config.seed ^ 0xFA11)
        self._requests = SlottedRecorder(config.slot_seconds)
        self._db_hits = SlottedRecorder(config.slot_seconds)
        self._failover_hits = SlottedRecorder(config.slot_seconds)
        self.total_requests = 0

    def _user_request(self, user) -> None:
        key = user.next_key()
        result = self.web.fetch(key, self.loop.now)
        self.total_requests += 1
        self._requests.record(self.loop.now, 1.0)
        self._db_hits.record(
            self.loop.now, 1.0 if result.touched_database else 0.0
        )
        self._failover_hits.record(self.loop.now, float(result.failover))
        self.loop.schedule_at(
            result.completed + user.next_think(), self._user_request, user
        )

    def run(self) -> FailoverReport:
        """Execute the run; returns the report."""
        config = self.config
        self.population.resize_to(config.num_users)
        for user in self.population.active:
            first = self._rng.uniform(0.0, max(0.1, user.think_time))
            self.loop.schedule_at(first, self._user_request, user)
        for event in config.failures:
            self.loop.schedule_at(
                event.when, self.cache.fail_server, event.server_id, event.when
            )
            if event.repair_at is not None and event.repair_at < config.duration:
                self.loop.schedule_at(
                    event.repair_at,
                    self.cache.repair_server,
                    event.server_id,
                    event.repair_at,
                )
        self.loop.run_until(config.duration)

        db_fraction = TimeSeries()
        for slot in self._requests.slots():
            requests = self._requests.count(slot)
            db = sum(self._db_hits.samples(slot))
            midpoint = (slot + 0.5) * config.slot_seconds
            db_fraction.append(midpoint, db / requests if requests else 0.0)
        failover_series = self._failover_hits.series("sum")
        return FailoverReport(
            replicas=config.replicas,
            total_requests=self.total_requests,
            db_reads=self.web.stats.database_reads,
            failovers=self.web.stats.failovers,
            db_fraction=db_fraction,
            failover_series=failover_series,
        )
