"""Closed-loop autopilot: health-aware provisioning over the simulated tier.

The paper's evaluation drives the cluster with a *precomputed* ``n(t)``
schedule (Fig. 4) — the feedback loop ran once, offline, and its output was
replayed.  This experiment runs the loop **online** and closes it with the
resilience layer:

* per-slot, a :class:`~repro.provisioning.health.ClusterHealthMonitor`
  aggregates crash state, served-around-fault counters, and drain-window
  state into a :class:`~repro.provisioning.health.HealthSnapshot`;
* the :class:`~repro.provisioning.controller.DelayFeedbackController` takes
  the snapshot next to the measured delay: a killed server triggers an
  emergency scale-up (the lost machine is capacity already gone), and
  scale-down is refused while anything is unhealthy or a previous
  transition's remap misses are still decaying.

Every drain window runs the paper's one fixed TTL (Section IV).  The
feedback is opt-in (:attr:`AutopilotConfig.health_feedback`); with it off
this is the paper's open loop, which is exactly the baseline
``benchmarks/bench_autopilot.py`` compares against.

Faults come in as a :class:`~repro.resilience.FaultSchedule` — the same
scripted-outage vocabulary the live tier's virtual network
(``tests/simnet``) replays — realized here as crash/repair events by
:meth:`~repro.experiments.testbed.SimTestbed.inject_faults`; the cluster,
the event loop and the meter are the testbed's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.core.retrieval import FetchPath, FetchResult
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError
from repro.experiments.testbed import (
    CACHE_OP_LATENCY,
    THINK_TIME,
    WEB_OVERHEAD,
    SimTestbed,
    Sizing,
)
from repro.provisioning.actuator import AppliedTransition, ProvisioningActuator
from repro.provisioning.controller import DelayFeedbackController
from repro.provisioning.health import ClusterHealthMonitor, HealthSnapshot
from repro.resilience import FaultSchedule
from repro.sim.metrics import SlottedRecorder, TimeSeries, percentile

__all__ = ["AutopilotConfig", "AutopilotReport", "AutopilotExperiment"]

#: recovery_slots() sentinel: healthy capacity never returned to baseline.
NEVER_RECOVERED = 10_000

# The testbed every autopilot run drives.
NUM_WEB_SERVERS = 4
NUM_DB_SHARDS = 4
CATALOGUE_SIZE = 6000
CACHE_CAPACITY_BYTES = 4096 * 600
PAGES_PER_USER = 30
#: seconds between PDU samples
POWER_SAMPLE_PERIOD = 5.0

#: rated requests/s one cache server carries (the controller's capacity model)
PER_SERVER_RATE = 18.0
#: control set point: the paper's Section VI value
DELAY_REFERENCE = 0.4
#: latency percentile fed back each slot
CONTROL_PERCENTILE = 95.0


@dataclass
class AutopilotConfig:
    """Knobs for one online-control run.

    The closed-loop switch is off by default, which makes the default
    configuration the paper's open loop: delay-only control with a fixed
    drain window.

    ``delay_bound`` and :data:`DELAY_REFERENCE` keep the paper's Section
    VI values; the control statistic fed back each slot is
    ``max(p95 measured, M/M/1 projection)`` — the projection supplies the
    feed-forward term the paper's heavily loaded testbed measured directly,
    while the measured percentile carries fault-induced degradation the
    projection cannot see.
    """

    users_per_slot: List[int] = field(default_factory=list)
    slot_seconds: float = 30.0
    num_servers: int = 8
    min_servers: int = 2
    delay_bound: float = 0.5
    #: closed-loop switch: feed HealthSnapshots to the controller.
    health_feedback: bool = False
    ttl_seconds: float = 60.0
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.users_per_slot:
            raise ConfigurationError("users_per_slot must not be empty")
        if self.slot_seconds <= 0:
            raise ConfigurationError(
                f"slot_seconds must be > 0, got {self.slot_seconds}"
            )
        if not 1 <= self.min_servers <= self.num_servers:
            raise ConfigurationError(
                f"min_servers out of range: {self.min_servers}"
            )
        if self.ttl_seconds <= 0:
            raise ConfigurationError(
                f"ttl_seconds must be > 0, got {self.ttl_seconds}"
            )
        for entry in self.faults.entries:
            if not 0 <= entry.server_id < self.num_servers:
                raise ConfigurationError(
                    f"fault targets unknown server {entry.server_id}"
                )

    @property
    def num_slots(self) -> int:
        return len(self.users_per_slot)

    @property
    def duration(self) -> float:
        return self.num_slots * self.slot_seconds


@dataclass
class AutopilotReport:
    """Everything the autopilot bench gates on, for one run."""

    config_label: str
    duration: float
    slot_seconds: float
    total_requests: int
    #: requests answered with a value (the degraded path always answers, so
    #: served < total means admission-shed fetches — the availability gate).
    served_requests: int
    #: per-slot commanded active count (controller output).
    active_counts: List[int]
    #: per-slot healthy capacity: powered, non-crashed servers inside the
    #: active mapping (draining stragglers outside it do not count —
    #: routing no longer sends them fresh load).
    healthy_counts: List[int]
    #: per-slot crashed-server sets.
    failed_sets: List[FrozenSet[int]]
    #: per-slot required capacity: servers needed to carry the slot's
    #: measured arrival rate at 90% of rated per-server load.
    required_counts: List[int]
    #: per-slot control statistic fed to the controller.
    measured_delays: List[float]
    #: per-slot arrival rate estimate (req/s).
    arrival_rates: List[float]
    #: per-slot health snapshots (empty when health_feedback was off).
    health_history: List[HealthSnapshot]
    latencies: SlottedRecorder
    transitions: List[AppliedTransition]
    energy_kwh: Dict[str, float]
    active_series: TimeSeries
    emergency_scale_ups: int
    vetoed_scale_downs: int
    #: run-wide remap-miss count (old-owner hits + digest false
    #: positives) — the migration cost all transitions together incurred.
    remap_misses_total: int = 0

    @property
    def availability(self) -> float:
        """Fraction of requests answered (1.0 = no request was lost)."""
        if self.total_requests == 0:
            return 1.0
        return self.served_requests / self.total_requests

    def latency_percentile(self, pct: float = 99.0) -> float:
        """Run-wide latency percentile (seconds)."""
        values = [
            v for slot in self.latencies.slots()
            for v in self.latencies.samples(slot)
        ]
        return percentile(values, pct) if values else 0.0

    def _fault_slot(self, fault_at: float) -> int:
        fault_slot = int(fault_at // self.slot_seconds)
        if fault_slot >= len(self.healthy_counts):
            raise ConfigurationError(
                f"fault_at {fault_at} is outside the run"
            )
        return fault_slot

    def underprovisioned_slots(
        self, fault_at: float, horizon_slots: Optional[int] = None
    ) -> int:
        """Slots after the fault with healthy capacity below requirement.

        Counts the slots in ``(fault_slot, fault_slot + horizon]`` where
        the healthy in-mapping capacity could not carry the slot's
        measured load at rated per-server throughput — the window in which
        the next fault, or the load itself, turns into delay violations.
        Zero means the controller replaced the lost capacity before the
        first post-fault boundary.  This is the post-fault recovery metric
        the autopilot bench gates on: strictly fewer under-provisioned
        slots closed-loop than open-loop.
        """
        fault_slot = self._fault_slot(fault_at)
        end = len(self.healthy_counts)
        if horizon_slots is not None:
            end = min(end, fault_slot + 1 + horizon_slots)
        return sum(
            1
            for slot in range(fault_slot + 1, end)
            if self.healthy_counts[slot] < self.required_counts[slot]
        )

    def recovery_slots(self, fault_at: float) -> int:
        """Slots from the fault until healthy capacity meets requirement
        again (:data:`NEVER_RECOVERED` when it never does inside the run).

        The first post-fault boundary that already satisfies the
        requirement scores 1 — the emergency-scale-up best case.
        """
        fault_slot = self._fault_slot(fault_at)
        for offset, slot in enumerate(
            range(fault_slot + 1, len(self.healthy_counts)), start=1
        ):
            if self.healthy_counts[slot] >= self.required_counts[slot]:
                return offset
        return NEVER_RECOVERED

    def to_dict(self) -> dict:
        """JSON-serializable summary (archived by the bench)."""
        return {
            "config": self.config_label,
            "duration": self.duration,
            "slot_seconds": self.slot_seconds,
            "total_requests": self.total_requests,
            "served_requests": self.served_requests,
            "availability": self.availability,
            "p99_latency": self.latency_percentile(99.0),
            "active_counts": list(self.active_counts),
            "healthy_counts": list(self.healthy_counts),
            "required_counts": list(self.required_counts),
            "failed_sets": [sorted(s) for s in self.failed_sets],
            "measured_delays": list(self.measured_delays),
            "arrival_rates": list(self.arrival_rates),
            "energy_kwh": dict(self.energy_kwh),
            "transitions": [
                {"when": t.when, "n_old": t.n_old, "n_new": t.n_new}
                for t in self.transitions
            ],
            "emergency_scale_ups": self.emergency_scale_ups,
            "vetoed_scale_downs": self.vetoed_scale_downs,
            "remap_misses_total": self.remap_misses_total,
        }


class AutopilotExperiment:
    """Online provisioning control over the simulated 3-tier testbed.

    Unlike :class:`~repro.experiments.cluster.ClusterExperiment`, which
    replays a precomputed schedule, the controller here decides at every
    slot boundary from the *measured* slot — and, when the closed loop is
    armed, from the slot's health snapshot.
    """

    def __init__(self, config: AutopilotConfig) -> None:
        self.config = config
        cfg = config
        initial = self._required(self._expected_rate(cfg.users_per_slot[0]))
        self.testbed = SimTestbed(
            Sizing(
                duration=cfg.duration,
                seed=cfg.seed,
                catalogue_size=CATALOGUE_SIZE,
                cache_capacity_bytes=CACHE_CAPACITY_BYTES,
                pages_per_user=PAGES_PER_USER,
                num_web_servers=NUM_WEB_SERVERS,
                num_db_shards=NUM_DB_SHARDS,
                power_sample_period=POWER_SAMPLE_PERIOD,
            ),
            ProteusRouter(cfg.num_servers),
            random.Random(cfg.seed ^ 0xBEEF),
            self._record,
            ttl=cfg.ttl_seconds,
            initial_active=initial,
        )
        self.cache = self.testbed.cache
        self.webs = self.testbed.webs
        self.loop = self.testbed.loop
        self.controller = DelayFeedbackController(
            num_servers=cfg.num_servers,
            delay_bound=cfg.delay_bound,
            delay_reference=DELAY_REFERENCE,
            min_servers=cfg.min_servers,
            per_server_rate=PER_SERVER_RATE,
        )
        # Start sized to the first slot's load, as the paper's loop had
        # converged before its recorded day began (run_feedback_loop idiom).
        self.controller.reset(initial)
        self.actuator = ProvisioningActuator(self.cache, smooth=True)
        self.monitor = ClusterHealthMonitor.for_simulation(
            self.cache, self.webs
        )
        self.latencies = SlottedRecorder(cfg.slot_seconds)
        self.served_requests = 0
        self._slot_requests = 0
        # per-slot records, filled at each slot boundary
        self._active_counts: List[int] = []
        self._healthy_counts: List[int] = []
        self._failed_sets: List[FrozenSet[int]] = []
        self._required_counts: List[int] = []
        self._measured: List[float] = []
        self._rates: List[float] = []

    def _required(self, rate: float) -> int:
        """Servers needed to carry *rate* at 90% of rated per-server load."""
        cfg = self.config
        required = math.ceil(rate / (0.9 * PER_SERVER_RATE))
        return min(cfg.num_servers, max(cfg.min_servers, required))

    def _expected_rate(self, users: int) -> float:
        """Closed-loop arrival-rate estimate: users / (think + service)."""
        return users / (THINK_TIME + WEB_OVERHEAD + 2 * CACHE_OP_LATENCY)

    def _record(self, now: float, result: FetchResult) -> None:
        self.latencies.record(now, result.latency)
        self._slot_requests += 1
        if result.value is not None:  # a SHED fetch was offered, not served
            self.served_requests += 1

    def _remap_total(self) -> int:
        """Cumulative remap-miss count over all web servers."""
        return sum(
            web.stats.counts[FetchPath.HIT_OLD]
            + web.stats.counts[FetchPath.FALSE_POSITIVE_DB]
            for web in self.webs
        )

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

    # ------------------------------------------------------- control slots

    def _control_tick(self, slot: int) -> None:
        """Slot boundary: measure the finished slot, decide, actuate."""
        cfg = self.config
        now = self.loop.now
        # Close any drain window whose TTL passed inside the slot.
        self.cache.finalize_expired(now)
        measured_slot = self.latencies.slot_of(now - cfg.slot_seconds / 2)
        if self.latencies.count(measured_slot):
            observed = self.latencies.pct(measured_slot, CONTROL_PERCENTILE)
        else:
            observed = 0.0
        rate = self._slot_requests / cfg.slot_seconds
        self._slot_requests = 0
        projected = self.controller.projected_delay(rate, self.controller.current)
        # The projection supplies the feed-forward signal (saturated M/M/1
        # projects infinity; cap it so the proportional step stays bounded),
        # the measurement carries fault-induced degradation.
        measured = min(max(observed, projected), cfg.delay_bound * 4)
        health = self.monitor.observe(now) if cfg.health_feedback else None
        n_next = self.controller.update(measured, rate, health=health)
        self._active_counts.append(n_next)
        self._healthy_counts.append(self._healthy_capacity())
        self._failed_sets.append(self.cache.failed_servers())
        self._required_counts.append(self._required(rate))
        self._measured.append(measured)
        self._rates.append(rate)
        if (
            n_next != self.cache.active_count
            and not self.cache.transitions.in_transition(now)
        ):
            # apply_at arms the power-off finalization of the window.
            self.actuator.apply_at(n_next, self.loop)

    # ---------------------------------------------------------------- run

    def run(self) -> AutopilotReport:
        """Execute the run; returns the report."""
        cfg = self.config
        testbed = self.testbed
        testbed.schedule_population(cfg.users_per_slot, cfg.slot_seconds)
        for slot in range(1, cfg.num_slots + 1):
            self.loop.schedule_at(
                slot * cfg.slot_seconds - 1e-6, self._control_tick, slot
            )
        testbed.inject_faults(cfg.faults)
        testbed.run()

        label = "closed_loop" if cfg.health_feedback else "open_loop"
        return AutopilotReport(
            config_label=label,
            duration=cfg.duration,
            slot_seconds=cfg.slot_seconds,
            total_requests=testbed.total_requests,
            served_requests=self.served_requests,
            active_counts=self._active_counts,
            healthy_counts=self._healthy_counts,
            failed_sets=self._failed_sets,
            required_counts=self._required_counts,
            measured_delays=self._measured,
            arrival_rates=self._rates,
            health_history=list(self.monitor.history),
            latencies=self.latencies,
            transitions=list(self.actuator.applied),
            energy_kwh=testbed.energy_kwh(),
            active_series=testbed.active_series,
            emergency_scale_ups=self.controller.emergency_scale_ups,
            vetoed_scale_downs=self.controller.vetoed_scale_downs,
            remap_misses_total=self._remap_total(),
        )
