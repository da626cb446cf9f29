"""The simulated testbed of Fig. 3 and the one experiment runner.

Closed-loop synthetic users (the RBE tier) drive web servers, which run
Algorithm 2 against the cache tier and the sharded database; a PDU-style
meter samples every socket; faults arrive as a ``FaultSchedule``.  The
paper's Section VI re-runs this one testbed and varies only the
load-distribution algorithm and the source of ``n(t)``, so there is one
runner: :meth:`SimTestbed.run` takes the workload, a *provisioner* — a
``ProvisioningSchedule`` replayed slot by slot, or a
``DelayFeedbackController`` deciding online — and a fault script, and
returns one :class:`RunReport`.  The Table II scenarios
(:func:`run_scenarios`), the closed loop and the crash run are three
calls of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.retrieval import FetchPath, RetrievalConfig
from repro.core.router import (
    ConsistentRouter,
    NaiveRouter,
    ProteusRouter,
    Router,
)
from repro.database.cluster import DatabaseCluster
from repro.errors import ConfigurationError
from repro.power.meter import PowerMeter, busy_time_probe, utilization_probe
from repro.provisioning.controller import DelayFeedbackController
from repro.provisioning.health import ClusterHealthMonitor
from repro.provisioning.policies import ProvisioningSchedule, static_schedule
from repro.resilience import FaultSchedule
from repro.sim.events import EventLoop
from repro.sim.latency import Constant, Exponential
from repro.sim.metrics import SlottedRecorder, TimeSeries, percentile
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
#: rated requests/s one cache server carries: a controller's capacity
#: model, and the yardstick of the required-``n(t)`` series
PER_SERVER_RATE = 18.0
#: latency percentile a slot's boundary measures (a controller's input)
CONTROL_PERCENTILE = 95.0
#: recovery_slots() sentinel: healthy capacity never returned to baseline.
NEVER_RECOVERED = 10_000

#: where ``n(t)`` comes from
Provisioner = Union[ProvisioningSchedule, DelayFeedbackController]


@dataclass(frozen=True)
class Sizing:
    """What one experiment's testbed varies: seed, workload and tier sizes.
    Everything else is a module constant."""

    seed: int
    catalogue_size: int
    cache_capacity_bytes: int
    pages_per_user: int
    num_web_servers: int = 1
    num_db_shards: int = 4
    #: seconds between PDU samples
    power_sample_period: float = 15.0


def _per_slot(field: str) -> property:
    """A report series: *field* of each ``slot.end`` on the timeline."""
    return property(lambda report: [
        event.fields[field] for event in report.timeline.of("slot.end")
    ])


@dataclass
class RunReport:
    """Everything one run measured.  The per-slot series hold one entry per
    workload slot, read off its ``slot.end`` event."""

    #: ``"schedule"``, ``"open_loop"`` or ``"closed_loop"`` (a controller
    #: fed health snapshots)
    provisioner: str
    slot_seconds: float
    total_requests: int
    #: requests per :class:`~repro.core.retrieval.FetchPath` label
    fetch_paths: Dict[str, int]
    db_requests: int
    failovers: int
    hit_ratio: float
    #: latency samples in Fig. 9 plot slots, warm-up excluded
    latencies: SlottedRecorder
    power_series: Dict[str, TimeSeries]
    #: powered cache servers at each power sample
    active_series: TimeSeries
    energy_kwh: Dict[str, float]
    #: the run's one record after ``n(0)`` (:mod:`repro.obs`)
    timeline: obs.Timeline

    requests_per_slot = _per_slot("requests")
    db_requests_per_slot = _per_slot("db_requests")
    #: the active count commanded for the next slot
    active_counts = _per_slot("active")
    #: powered, non-crashed servers inside the active mapping (draining
    #: stragglers outside it do not count — routing no longer sends them
    #: fresh load)
    healthy_counts = _per_slot("healthy")
    #: servers needed to carry the slot's measured arrival rate at 90% of
    #: :data:`PER_SERVER_RATE`
    required_counts = _per_slot("required")
    #: the crashed servers, a sorted list per slot
    failed_sets = _per_slot("failed")
    #: the delay statistic the provisioner saw: the slot's p95, which a
    #: controller raises to the M/M/1 projection
    measured_delays = _per_slot("delay")

    @property
    def transitions(self) -> List[obs.Event]:
        """Every ``transition.begin`` of the run, smooth or abrupt."""
        return self.timeline.of("transition.begin")

    @property
    def emergency_scale_ups(self) -> int:
        """Slots where health feedback forced extra capacity."""
        return len(self.timeline.of("controller.emergency"))

    @property
    def vetoed_scale_downs(self) -> int:
        """Slots where health feedback blocked a wanted scale-down."""
        return len(self.timeline.of("controller.veto"))

    @property
    def duration(self) -> float:
        return len(self.active_counts) * self.slot_seconds

    @property
    def served_requests(self) -> int:
        """Requests answered with a value: all but the admission-shed."""
        return self.total_requests - self.fetch_paths[FetchPath.SHED.value]

    @property
    def availability(self) -> float:
        """Fraction of requests answered (1.0 = no request was lost)."""
        if self.total_requests == 0:
            return 1.0
        return self.served_requests / self.total_requests

    @property
    def arrival_rates(self) -> List[float]:
        """Per-slot arrival rate (req/s)."""
        return [n / self.slot_seconds for n in self.requests_per_slot]

    @property
    def remap_misses_total(self) -> int:
        """Old-owner hits plus digest false positives: the migration cost
        all transitions together incurred."""
        return (
            self.fetch_paths[FetchPath.HIT_OLD.value]
            + self.fetch_paths[FetchPath.FALSE_POSITIVE_DB.value]
        )

    @property
    def db_fraction(self) -> TimeSeries:
        """Per-slot fraction of requests the database served, at slot
        midpoints."""
        out = TimeSeries()
        for slot, (requests, db) in enumerate(
            zip(self.requests_per_slot, self.db_requests_per_slot)
        ):
            if requests:
                out.append((slot + 0.5) * self.slot_seconds, db / requests)
        return out

    def latency_percentiles(self, pct: float = 99.9) -> TimeSeries:
        """Per-plot-slot latency percentile (the Fig. 9 curves)."""
        return self.latencies.series(pct)

    def peak_latency(self, pct: float = 99.9) -> float:
        """Worst per-slot percentile over the run (the spike height)."""
        series = self.latency_percentiles(pct)
        return max(series.values) if len(series) else 0.0

    def latency_percentile(self, pct: float = 99.0) -> float:
        """Run-wide latency percentile (seconds)."""
        values = [
            v for slot in self.latencies.slots()
            for v in self.latencies.samples(slot)
        ]
        return percentile(values, pct) if values else 0.0

    def _after_fault(self, fault_at: float) -> List[Tuple[int, int]]:
        """``(healthy, required)`` of each slot after the fault's."""
        fault_slot = int(fault_at // self.slot_seconds)
        healthy = self.healthy_counts
        if fault_slot >= len(healthy):
            raise ConfigurationError(f"fault_at {fault_at} is outside the run")
        return list(zip(healthy, self.required_counts))[fault_slot + 1:]

    def underprovisioned_slots(
        self, fault_at: float, horizon_slots: Optional[int] = None
    ) -> int:
        """Slots after the fault with healthy capacity below requirement.

        Counts the slots in ``(fault_slot, fault_slot + horizon]`` where
        the healthy in-mapping capacity could not carry the slot's
        measured load at rated per-server throughput — the window in which
        the next fault, or the load itself, turns into delay violations.
        Zero means the controller replaced the lost capacity before the
        first post-fault boundary.
        """
        after = self._after_fault(fault_at)[:horizon_slots]
        return sum(healthy < required for healthy, required in after)

    def recovery_slots(self, fault_at: float) -> int:
        """Slots from the fault until healthy capacity meets requirement
        again (:data:`NEVER_RECOVERED` when it never does inside the run).

        The first post-fault boundary that already satisfies the
        requirement scores 1 — the emergency-scale-up best case.
        """
        after = self._after_fault(fault_at)
        for offset, (healthy, required) in enumerate(after, start=1):
            if healthy >= required:
                return offset
        return NEVER_RECOVERED

    def to_dict(self) -> dict:
        """JSON-serializable summary (``BENCH_autopilot.json``'s rows)."""
        return {
            "config": self.provisioner,
            "duration": self.duration,
            "slot_seconds": self.slot_seconds,
            "total_requests": self.total_requests,
            "served_requests": self.served_requests,
            "availability": self.availability,
            "p99_latency": self.latency_percentile(99.0),
            "active_counts": self.active_counts,
            "healthy_counts": self.healthy_counts,
            "required_counts": self.required_counts,
            "failed_sets": self.failed_sets,
            "measured_delays": self.measured_delays,
            "arrival_rates": self.arrival_rates,
            "energy_kwh": dict(self.energy_kwh),
            "transitions": [
                {"when": t.t, "n_old": t.fields["n_old"],
                 "n_new": t.fields["n_new"]}
                for t in self.transitions
            ],
            "emergency_scale_ups": self.emergency_scale_ups,
            "vetoed_scale_downs": self.vetoed_scale_downs,
            "remap_misses_total": self.remap_misses_total,
        }


class SimTestbed:
    """Users → web → cache → DB on one event loop, with a power meter.

    *sizing* fixes the tiers and the seed; *router* is the scheme under
    test and fixes the fleet size; a transition drains for *ttl* seconds
    (Proteus), and a zero *ttl* flips it at once (Naive, Consistent);
    every web server shares the *retrieval* options.  Every
    cache server starts on; :meth:`run` powers the fleet to ``n(0)``.  A
    testbed runs once.
    """

    def __init__(
        self,
        sizing: Sizing,
        router: Router,
        ttl: float,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> None:
        if ttl < 0:
            raise ConfigurationError(f"ttl must be >= 0, got {ttl}")
        self.ttl = ttl
        # Picks a web server per request and staggers first requests.
        self.rng = random.Random(sizing.seed ^ 0xBEEF)
        self.cache = CacheCluster(
            router,
            capacity_bytes=sizing.cache_capacity_bytes,
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
        self.active_series = TimeSeries()
        self.total_requests = 0
        self._retired_ids: set = set()
        # Set by run(): the plot recorder and what the slot boundary reads.
        self.latencies = SlottedRecorder(1.0)
        self._warmup = 0.0
        self._slot_seconds = 1.0
        self._provisioner: Optional[Provisioner] = None
        self._monitor: Optional[ClusterHealthMonitor] = None
        self._floor = 1
        # The finishing slot's samples.
        self._slot_latencies: List[float] = []
        self._slot_db = 0

    def _wire_power_channels(self, cache_cost: float, web_cost: float) -> None:
        """One metered socket per server of every tier."""
        tiers = (
            ("cache", self.cache.servers, lambda s: utilization_probe(
                requests_counter=lambda: s.stats.requests,
                powered=lambda: s.state.serves_requests,
                op_cost=cache_cost,
            )),
            ("web", self.webs, lambda w: utilization_probe(
                requests_counter=lambda: w.stats.total,
                powered=lambda: True,
                op_cost=web_cost,
            )),
            ("database", self.database.shards, lambda s: busy_time_probe(
                busy_time=lambda: s.queue.busy_time, powered=lambda: True
            )),
        )
        for tier, members, probe_of in tiers:
            for member in members:
                self.meter.add_channel(tier=tier, probe=probe_of(member))

    # ---------------------------------------------------------------- users

    def _user_request(self, user: SyntheticUser) -> None:
        """One closed-loop step: fetch, record, think, come back."""
        if user.user_id in self._retired_ids:
            return
        web = self.webs[self.rng.randrange(len(self.webs))]
        now = self.loop.now
        result = web.fetch(user.next_key(), now)
        self.total_requests += 1
        self._slot_latencies.append(result.latency)
        self._slot_db += result.touched_database
        if now >= self._warmup:
            self.latencies.record(now, result.latency)
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

    def prewarm(self) -> None:
        """Fill caches with the active users' page sets (no DB timing).

        Mimics starting the measurement against an already-warm tier (a
        cold-start flood would put the same spike into every run and mask
        the transition signal): each page is installed at its *routed*
        owner under the current mapping, with values taken from the
        authoritative store directly.
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

    # ------------------------------------------------------------------ run

    def run(
        self,
        users_per_slot: List[int],
        slot_seconds: float,
        provisioner: Provisioner,
        faults: Optional[FaultSchedule] = None,
        *,
        plot_slots: int = 48,
        warmup_seconds: float = 0.0,
        health_feedback: bool = False,
    ) -> RunReport:
        """Run *users_per_slot* closed-loop users, slot by slot, while
        *provisioner* sets ``n(t)`` and *faults* crash and repair servers.

        A schedule is replayed: its first count is ``n(0)``, and each
        later count takes over at its slot boundary.  A controller is reset
        to the servers the first slot's load needs and updated at every
        boundary, fed a health snapshot when *health_feedback* is on.
        Latency percentiles are binned into *plot_slots* slots after
        *warmup_seconds*.
        """
        faults = faults or FaultSchedule()
        self._check(users_per_slot, slot_seconds, provisioner, faults,
                    plot_slots, health_feedback)
        duration = len(users_per_slot) * slot_seconds
        self._slot_seconds = slot_seconds
        self._provisioner = provisioner
        self._warmup = warmup_seconds
        self.latencies = SlottedRecorder(
            (duration - warmup_seconds) / plot_slots, start=warmup_seconds
        )
        if isinstance(provisioner, ProvisioningSchedule):
            label, initial = "schedule", provisioner.counts[0]
        else:
            label = "closed_loop" if health_feedback else "open_loop"
            self._floor = provisioner.min_servers
            # Start sized to the first slot's load, as the paper's loop had
            # converged before its recorded day began.
            initial = self._required(
                users_per_slot[0]
                / (THINK_TIME + WEB_OVERHEAD + 2 * CACHE_OP_LATENCY)
            )
            provisioner.reset(initial)
            if health_feedback:
                self._monitor = ClusterHealthMonitor(
                    [web.stats for web in self.webs], self.cache.failed_servers,
                    self.cache.transitions.in_transition)
        self.cache.scale_to(initial, 0.0, 0.0)  # n(0): the rest stay off
        # A schedule changes n on its boundaries, ahead of everything else
        # due there; a controller decides just before one.
        lead = 0.0 if label == "schedule" else 1e-6
        for slot in range(1, len(users_per_slot) + 1):
            self.loop.schedule_at(
                slot * slot_seconds - lead, self._end_slot, slot
            )
        # Slot 0's users start now, against a warm tier; every later
        # slot's resize is due at its boundary.
        self.resize_population(users_per_slot[0])
        self.prewarm()
        for slot, target in enumerate(users_per_slot[1:], start=1):
            self.loop.schedule_at(slot * slot_seconds, self.resize_population, target)
        self._inject_faults(faults, duration)
        self.loop.schedule_at(0.0, self._sample_power, duration)
        with obs.recording() as timeline:
            self.loop.run_until(duration)

        fetch_paths = {path.value: 0 for path in FetchPath}
        for web in self.webs:
            for path, count in web.stats.counts.items():
                fetch_paths[path.value] += count
        return RunReport(
            provisioner=label,
            slot_seconds=slot_seconds,
            total_requests=self.total_requests,
            fetch_paths=fetch_paths,
            db_requests=self.database.total_requests(),
            failovers=sum(web.stats.failovers for web in self.webs),
            hit_ratio=self.cache.total_hit_ratio(),
            latencies=self.latencies,
            power_series={"total": self.meter.total_series,
                          **self.meter.tier_series},
            active_series=self.active_series,
            energy_kwh=self.energy_kwh(),
            timeline=timeline,
        )

    def _check(
        self,
        users_per_slot: List[int],
        slot_seconds: float,
        provisioner: Provisioner,
        faults: FaultSchedule,
        plot_slots: int,
        health_feedback: bool,
    ) -> None:
        """Reject a run that cannot be simulated, before any of it is."""
        fleet = self.cache.num_servers
        if not users_per_slot:
            raise ConfigurationError("users_per_slot must not be empty")
        if slot_seconds <= 0:
            raise ConfigurationError(
                f"slot_seconds must be > 0, got {slot_seconds}"
            )
        if plot_slots < 1:
            raise ConfigurationError(f"plot_slots must be >= 1, got {plot_slots}")
        if isinstance(provisioner, ProvisioningSchedule):
            if (provisioner.num_slots, provisioner.slot_seconds) != (
                len(users_per_slot), slot_seconds
            ):
                raise ConfigurationError(
                    f"users_per_slot has {len(users_per_slot)} slots of "
                    f"{slot_seconds}s, the schedule {provisioner.num_slots} "
                    f"of {provisioner.slot_seconds}s"
                )
            if max(provisioner.counts) > fleet:
                raise ConfigurationError(
                    "schedule asks for more cache servers than the fleet has"
                )
            if health_feedback:
                raise ConfigurationError("health feedback needs a controller")
        elif provisioner.num_servers != fleet:
            raise ConfigurationError(
                f"controller sized for {provisioner.num_servers} servers, "
                f"the router for {fleet}"
            )
        for fault in faults.entries:
            if not 0 <= fault.server_id < fleet:
                raise ConfigurationError(
                    f"fault targets unknown server {fault.server_id}"
                )
            if fault.at >= len(users_per_slot) * slot_seconds:
                raise ConfigurationError("fault scheduled after the run ends")

    def _required(self, rate: float) -> int:
        """Servers needed to carry *rate* at 90% of rated per-server load."""
        required = math.ceil(rate / (0.9 * PER_SERVER_RATE))
        return min(self.cache.num_servers, max(self._floor, required))

    def _healthy_capacity(self) -> int:
        """Powered, non-crashed servers inside the active mapping — the
        servers actually absorbing fresh load right now."""
        failed = self.cache.failed_servers()
        return sum(
            1
            for sid in range(self.cache.active_count)
            if sid not in failed
            and self.cache.server(sid).state.serves_requests
        )

    def _end_slot(self, slot: int) -> None:
        """The end of slot ``slot - 1``: measure it, decide ``n`` for the
        next one, and actuate.  Every provisioning decision of a run, from
        a schedule or a controller, is made here."""
        now = self.loop.now
        cache = self.cache
        # Close any drain window whose TTL passed inside the slot.
        cache.finalize_expired(now)
        samples, self._slot_latencies = self._slot_latencies, []
        observed = percentile(samples, CONTROL_PERCENTILE) if samples else 0.0
        rate = len(samples) / self._slot_seconds
        provisioner = self._provisioner
        if isinstance(provisioner, ProvisioningSchedule):
            measured = observed
            n_next = provisioner.counts[min(slot, provisioner.num_slots - 1)]
        else:
            projected = provisioner.projected_delay(rate, provisioner.current)
            # The projection supplies the feed-forward signal (saturated
            # M/M/1 projects infinity; cap it so the proportional step stays
            # bounded), the measurement carries fault-induced degradation.
            measured = min(max(observed, projected), provisioner.delay_bound * 4)
            health = self._monitor.observe(now) if self._monitor else None
            n_next = provisioner.update(measured, rate, health=health)
        obs.emit("slot.end", now, requests=len(samples),
                 db_requests=self._slot_db, active=n_next,
                 healthy=self._healthy_capacity(),
                 required=self._required(rate),
                 failed=sorted(cache.failed_servers()), delay=measured)
        self._slot_db = 0
        # A schedule step into an open drain window raises; a controller
        # waits for the window to close.
        if isinstance(provisioner, ProvisioningSchedule) or (
            n_next != cache.active_count
            and not cache.transitions.in_transition(now)
        ):
            transition = cache.scale_to(n_next, now, self.ttl)
            if transition is not None and self.ttl > 0:
                # Power the drained servers off at the deadline (+epsilon
                # so the expiry check sees now >= deadline).
                when = transition.deadline + 1e-9
                self.loop.schedule_at(when, cache.finalize_expired, when)

    def _inject_faults(self, schedule: FaultSchedule, end: float) -> None:
        """Schedule the crash and the repair of every ``kills_server`` entry,
        each only if it falls inside the run (other plans have no sim form)."""
        for fault in schedule.crashes():
            for when, change in (
                (fault.at, self.cache.fail_server),
                (fault.clear_at, self.cache.repair_server),
            ):
                if when is not None and when < end:
                    self.loop.schedule_at(when, change, fault.server_id, when)

    def _sample_power(self, end: float) -> None:
        now = self.loop.now
        self.meter.sample(now)
        self.active_series.append(now, float(len(self.cache.powered_servers())))
        if now + self.meter.sample_period < end:
            self.loop.schedule_at(
                now + self.meter.sample_period, self._sample_power, end
            )

    def energy_kwh(self) -> Dict[str, float]:
        """Energy over the run: ``total`` plus one entry per tier."""
        per_tier = {tier: self.meter.energy_kwh(tier) for tier in self.meter.tiers()}
        return {"total": self.meter.energy_kwh(), **per_tier}


# ------------------------------------------------------ Table II scenarios


@dataclass(frozen=True)
class ScenarioSpec:
    """One Table II scenario: a router (how load is spread) plus a
    provisioning rule (*dynamic*: follow the schedule, or every server on)
    and whether a transition drains (*smooth*).

    ``coalesce_misses`` arms the engine's dog-pile protection on every web
    server; off in the paper's evaluation (the Fig. 9 spike depends on the
    dog pile being possible), so ablations flip it per scenario.
    """

    name: str
    router_factory: Callable[[int], Router]
    smooth: bool
    dynamic: bool
    coalesce_misses: bool = False

    def with_coalescing(self, enabled: bool = True) -> "ScenarioSpec":
        """This scenario with dog-pile coalescing forced on (or off)."""
        suffix = "+coalesce" if enabled else "-coalesce"
        name = self.name if self.name.endswith(suffix) else self.name + suffix
        return replace(self, name=name, coalesce_misses=enabled)

    def testbed(self, sizing: Sizing, fleet: int, ttl: float) -> SimTestbed:
        """A testbed of *fleet* cache servers routed and drained the
        scenario's way."""
        return SimTestbed(
            sizing,
            self.router_factory(fleet),
            ttl if self.smooth else 0.0,
            retrieval=RetrievalConfig(coalesce_misses=self.coalesce_misses),
        )

    def provisioner(
        self, schedule: ProvisioningSchedule, fleet: int
    ) -> ProvisioningSchedule:
        """*schedule*, or every server on in every slot when static."""
        if self.dynamic:
            return schedule
        return static_schedule(fleet, schedule.num_slots, schedule.slot_seconds)


#: The four scenarios of Table II, in the paper's order: Static is Naive's
#: router with every server on.
SCENARIOS = (
    ScenarioSpec("Static", NaiveRouter, smooth=False, dynamic=False),
    ScenarioSpec("Naive", NaiveRouter, smooth=False, dynamic=True),
    ScenarioSpec("Consistent", ConsistentRouter.quadratic_variant,
                 smooth=False, dynamic=True),
    ScenarioSpec("Proteus", ProteusRouter, smooth=True, dynamic=True),
)


def scenario(name: str) -> ScenarioSpec:
    """The Table II scenario called *name* (case-insensitive)."""
    wanted = str(name).strip().lower()
    for spec in SCENARIOS:
        if spec.name.lower() == wanted:
            return spec
    raise ConfigurationError(
        f"unknown scenario {name!r} (expected one of "
        f"{', '.join(spec.name.lower() for spec in SCENARIOS)})"
    )


def run_scenarios(
    sizing: Sizing,
    fleet: int,
    ttl: float,
    schedule: ProvisioningSchedule,
    users_per_slot: List[int],
    specs: Optional[List[ScenarioSpec]] = None,
    **measure,
) -> Dict[str, RunReport]:
    """Run each scenario (default: the four of Table II) on its own testbed
    of the same sizing, schedule, workload and seeds — the paper's method,
    which leaves the routing and transition behaviour the only variables.
    *measure* (``plot_slots``, ``warmup_seconds``) goes to every run."""
    return {
        spec.name: spec.testbed(sizing, fleet, ttl).run(
            users_per_slot,
            schedule.slot_seconds,
            spec.provisioner(schedule, fleet),
            **measure,
        )
        for spec in specs or SCENARIOS
    }
