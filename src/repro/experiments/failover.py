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

from repro.core.retrieval import FetchResult
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError
from repro.experiments.testbed import SimTestbed, Sizing
from repro.resilience import FaultSchedule
from repro.sim.metrics import SlottedRecorder, TimeSeries

#: bytes of cache per server (2000 pages)
CACHE_CAPACITY_BYTES = 4096 * 2000
#: drain-window length of a smooth transition, seconds
TTL_SECONDS = 60.0

@dataclass
class FailoverConfig:
    """Knobs for one failure-injection run."""

    duration: float = 120.0
    num_servers: int = 8
    replicas: int = 2
    num_users: int = 80
    catalogue_size: int = 6000
    pages_per_user: int = 30
    #: the scripted outage; only its ``kills_server`` entries are realized
    #: (:meth:`~repro.experiments.testbed.SimTestbed.inject_faults`).
    failures: FaultSchedule = field(default_factory=FaultSchedule)
    slot_seconds: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        for fault in self.failures.entries:
            if not 0 <= fault.server_id < self.num_servers:
                raise ConfigurationError(
                    f"failure targets unknown server {fault.server_id}"
                )
            if fault.at >= self.duration:
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


class FailoverExperiment:
    """Closed-loop load + a crash/repair schedule over a replicated tier."""

    def __init__(self, config: FailoverConfig) -> None:
        self.config = config
        self.testbed = SimTestbed(
            Sizing(
                duration=config.duration,
                seed=config.seed,
                catalogue_size=config.catalogue_size,
                cache_capacity_bytes=CACHE_CAPACITY_BYTES,
                pages_per_user=config.pages_per_user,
            ),
            ProteusRouter(config.num_servers, 2 ** 24, config.replicas),
            random.Random(config.seed ^ 0xFA11),
            self._record,
            ttl=TTL_SECONDS,
        )
        self._requests = SlottedRecorder(config.slot_seconds)
        self._db_hits = SlottedRecorder(config.slot_seconds)
        self._failover_hits = SlottedRecorder(config.slot_seconds)

    def _record(self, now: float, result: FetchResult) -> None:
        self._requests.record(now, 1.0)
        self._db_hits.record(now, 1.0 if result.touched_database else 0.0)
        self._failover_hits.record(now, float(result.failover))

    def run(self) -> FailoverReport:
        """Execute the run; returns the report."""
        config = self.config
        testbed = self.testbed
        testbed.resize_population(config.num_users)
        testbed.inject_faults(config.failures)
        testbed.run()

        db_fraction = TimeSeries()
        for slot in self._requests.slots():
            requests = self._requests.count(slot)
            db = sum(self._db_hits.samples(slot))
            midpoint = (slot + 0.5) * config.slot_seconds
            db_fraction.append(midpoint, db / requests if requests else 0.0)
        (web,) = testbed.webs
        return FailoverReport(
            replicas=config.replicas,
            total_requests=testbed.total_requests,
            db_reads=web.stats.database_reads,
            failovers=web.stats.failovers,
            db_fraction=db_fraction,
            failover_series=self._failover_hits.series("sum"),
        )
