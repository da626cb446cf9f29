"""The simulated testbed of Fig. 3 — the one object that *is* the cluster.

Closed-loop synthetic users (the RBE tier) drive web servers, which run
Algorithm 2 against the cache tier and the sharded database; a PDU-style
meter samples every socket; faults arrive as a ``FaultSchedule``.  The
paper re-runs this one testbed with only the routing / transition policy
varied, so each experiment *composes* a :class:`SimTestbed` and keeps what
is its own: config, report, per-request recorder and ``n(t)`` policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.retrieval import FetchResult, RetrievalConfig
from repro.core.router import Router
from repro.database.cluster import DatabaseCluster
from repro.power.meter import PowerMeter, busy_time_probe, utilization_probe
from repro.resilience import FaultSchedule
from repro.sim.events import EventLoop
from repro.sim.latency import Constant, Exponential
from repro.sim.metrics import TimeSeries
from repro.web.frontend import WebServer
from repro.workload.synthetic import SyntheticUser, UserPopulation

#: bytes per cached page (Fig. 3's fixed-size web objects)
ITEM_SIZE = 4096
#: cache get/set service time, seconds
CACHE_OP_LATENCY = 0.001
#: web-server processing per request, seconds
WEB_OVERHEAD = 0.002
#: mean of the exponential per-shard database service time, seconds
DB_SERVICE_MEAN = 0.050
#: popularity skew of every user's page set
ZIPF_ALPHA = 0.9
#: closed-loop think time between a user's requests, seconds (§V)
THINK_TIME = 0.5


@dataclass(frozen=True)
class Sizing:
    """What one experiment's testbed varies: run length, seed, workload
    and tier sizes.  Everything else is a module constant."""

    duration: float
    seed: int
    catalogue_size: int
    cache_capacity_bytes: int
    pages_per_user: int
    num_web_servers: int = 1
    num_db_shards: int = 4
    #: seconds between PDU samples
    power_sample_period: float = 15.0


class SimTestbed:
    """Users → web → cache → DB on one event loop, with a power meter.

    *sizing* fixes the run and the tiers; *router* is the scheme under
    test and fixes the fleet size; *rng* is the experiment's stream (picks
    a web server per request, staggers first requests); ``record(now,
    result)`` sees every fetch; *initial_active* cache servers start on
    (``None`` = all) with drain window *ttl*; every web server shares the
    *retrieval* options.
    """

    def __init__(
        self,
        sizing: Sizing,
        router: Router,
        rng: random.Random,
        record: Callable[[float, FetchResult], None],
        ttl: float,
        initial_active: Optional[int] = None,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> None:
        self.rng = rng
        self.record = record
        self.duration = sizing.duration
        self.cache = CacheCluster(
            router,
            capacity_bytes=sizing.cache_capacity_bytes,
            initial_active=initial_active,
            ttl=ttl,
            bloom_config=optimal_config(
                max(1024, sizing.cache_capacity_bytes // ITEM_SIZE)
            ),
        )
        self.database = DatabaseCluster(
            sizing.num_db_shards,
            service_model=Exponential(DB_SERVICE_MEAN),
            seed=sizing.seed,
        )
        self.webs: List[WebServer] = [
            WebServer(
                i,
                self.cache,
                self.database,
                cache_latency=Constant(CACHE_OP_LATENCY),
                web_overhead=Constant(WEB_OVERHEAD),
                seed=sizing.seed,
                config=retrieval,
            )
            for i in range(sizing.num_web_servers)
        ]
        self.population = UserPopulation(
            catalogue_size=sizing.catalogue_size,
            pages_per_user=sizing.pages_per_user,
            think_time=THINK_TIME,
            alpha=ZIPF_ALPHA,
            seed=sizing.seed,
        )
        self.loop = EventLoop()
        self.meter = PowerMeter(sizing.power_sample_period)
        self._wire_power_channels(
            CACHE_OP_LATENCY, WEB_OVERHEAD + 2 * CACHE_OP_LATENCY
        )
        #: powered cache servers at each power sample
        self.active_series = TimeSeries()
        self.total_requests = 0
        self._retired_ids: set = set()

    def _wire_power_channels(self, cache_cost: float, web_cost: float) -> None:
        """One metered socket per server of every tier."""
        tiers = (
            ("cache", "cache", self.cache.servers, lambda s: utilization_probe(
                requests_counter=lambda: s.stats.requests,
                powered=lambda: s.state.serves_requests,
                op_cost=cache_cost,
            )),
            ("web", "web", self.webs, lambda w: utilization_probe(
                requests_counter=lambda: w.stats.total,
                powered=lambda: True,
                op_cost=web_cost,
            )),
            ("db", "database", self.database.shards, lambda s: busy_time_probe(
                busy_time=lambda: s.queue.busy_time, powered=lambda: True
            )),
        )
        for prefix, tier, members, probe_of in tiers:
            for index, member in enumerate(members):
                self.meter.add_channel(
                    name=f"{prefix}-{index}", tier=tier, probe=probe_of(member)
                )

    def _user_request(self, user: SyntheticUser) -> None:
        """One closed-loop step: fetch, record, think, come back."""
        if user.user_id in self._retired_ids:
            return
        web = self.webs[self.rng.randrange(len(self.webs))]
        result = web.fetch(user.next_key(), self.loop.now)
        self.total_requests += 1
        self.record(self.loop.now, result)
        self.loop.schedule_at(
            result.completed + user.next_think(), self._user_request, user
        )

    def resize_population(self, target: int) -> None:
        """Spawn / retire users until *target* are active, now."""
        delta = self.population.resize_to(target)
        self._retired_ids.update(user.user_id for user in delta.retired)
        for user in delta.spawned:
            first = self.loop.now + self.rng.uniform(0.0, user.think_time or 0.1)
            self.loop.schedule_at(first, self._user_request, user)

    def schedule_population(
        self, users_per_slot: List[int], slot_seconds: float
    ) -> None:
        """Slot 0's users start now, against a warm tier; every later
        slot's resize is scheduled at its boundary."""
        self.resize_population(users_per_slot[0])
        self.prewarm()
        for slot, target in enumerate(users_per_slot[1:], start=1):
            self.loop.schedule_at(slot * slot_seconds, self.resize_population, target)

    def prewarm(self) -> None:
        """Fill caches with the active users' page sets (no DB timing).

        Mimics starting the measurement against an already-warm tier: each
        page is installed at its *routed* owner under the current mapping,
        with values taken from the authoritative store directly.
        """
        pages = (key for user in self.population.active for key in user.pages)
        distinct = list(dict.fromkeys(pages))
        # One vectorized routing pass over the whole warm set instead of
        # one hash + ring walk per page.
        owners = self.cache.router.route_many(distinct, self.cache.active_count)
        for key, server in zip(distinct, owners):
            target = self.cache.server(server)
            if target.state.serves_requests:
                value = self.database.shard_for(key).lookup(key)
                target.set(key, value, now=0.0, size=ITEM_SIZE)

    def inject_faults(self, schedule: FaultSchedule) -> None:
        """Schedule the crash and the repair of every ``kills_server`` entry,
        each only if it falls inside the run (other plans have no sim form)."""
        for fault in schedule.crashes():
            for when, change in (
                (fault.at, self.cache.fail_server),
                (fault.clear_at, self.cache.repair_server),
            ):
                if when is not None and when < self.duration:
                    self.loop.schedule_at(when, change, fault.server_id, when)

    def _sample_power(self) -> None:
        now = self.loop.now
        self.meter.sample(now)
        self.active_series.append(now, float(len(self.cache.powered_servers())))
        if now + self.meter.sample_period < self.duration:
            self.loop.schedule_at(now + self.meter.sample_period, self._sample_power)

    def run(self) -> None:
        """Start the PDU sampling and run the loop to the end of the run."""
        self.loop.schedule_at(0.0, self._sample_power)
        self.loop.run_until(self.duration)

    def energy_kwh(self) -> Dict[str, float]:
        """Energy over the run: ``total`` plus one entry per tier."""
        per_tier = {tier: self.meter.energy_kwh(tier) for tier in self.meter.tiers()}
        return {"total": self.meter.energy_kwh(), **per_tier}
