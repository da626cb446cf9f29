"""The full 3-tier cluster experiment (paper Figs. 9, 10, 11).

Runs the testbed of Fig. 3 (:class:`~repro.experiments.testbed.SimTestbed`:
closed-loop users, web, cache and database tiers, a PDU-style meter) while
a provisioning actuator replays a fixed ``n(t)`` schedule.

One :class:`ClusterExperiment` runs one Table II scenario.  The paper's
methodology is preserved exactly: *the same* schedule, data, and workload
seeds are applied to all four scenarios, so the only varying factors are
the load-distribution algorithm and the transition behaviour.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.core.retrieval import FetchPath, FetchResult, RetrievalConfig
from repro.core.router import (
    ConsistentRouter,
    NaiveRouter,
    ProteusRouter,
    Router,
    StaticRouter,
)
from repro.errors import ConfigurationError
from repro.experiments.testbed import SimTestbed, Sizing
from repro.provisioning.actuator import AppliedTransition, ProvisioningActuator
from repro.provisioning.policies import ProvisioningSchedule, static_schedule
from repro.sim.metrics import SlottedRecorder, TimeSeries


@dataclass(frozen=True)
class ScenarioSpec:
    """One Table II scenario: router family + provisioning behaviour.

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

    @staticmethod
    def static() -> "ScenarioSpec":
        """All servers on, hash+modulo."""
        return ScenarioSpec("Static", StaticRouter, smooth=False, dynamic=False)

    @staticmethod
    def naive() -> "ScenarioSpec":
        """Dynamic provisioning, hash+modulo, abrupt transitions."""
        return ScenarioSpec("Naive", NaiveRouter, smooth=False, dynamic=True)

    @staticmethod
    def consistent() -> "ScenarioSpec":
        """Dynamic provisioning, n^2/2 random virtual nodes, abrupt."""
        return ScenarioSpec(
            "Consistent",
            ConsistentRouter.quadratic_variant,
            smooth=False,
            dynamic=True,
        )

    @staticmethod
    def proteus() -> "ScenarioSpec":
        """Dynamic provisioning, Algorithm 1 placement, smooth transitions."""
        return ScenarioSpec("Proteus", ProteusRouter, smooth=True, dynamic=True)

    @staticmethod
    def all_four() -> List["ScenarioSpec"]:
        """The paper's presentation order."""
        return [
            ScenarioSpec.static(),
            ScenarioSpec.naive(),
            ScenarioSpec.consistent(),
            ScenarioSpec.proteus(),
        ]


@dataclass
class ExperimentConfig:
    """Shared knobs for one experiment run (paper Section V defaults, scaled).

    The paper's testbed: 10 web servers, 10 cache servers, 7 DB shards,
    think time 0.5 s, 50-page user sets.  Durations and rates are scaled so
    a full 4-scenario comparison runs in minutes of wall-clock; the sizes
    are explicit so benches can scale up.  Every run starts against a warm
    tier: a cold-start flood would put the same spike into *every*
    scenario and mask the transition signal.
    """

    schedule: ProvisioningSchedule
    users_per_slot: List[int]
    num_cache_servers: int = 10
    num_web_servers: int = 10
    num_db_shards: int = 7
    catalogue_size: int = 20_000
    cache_capacity_bytes: int = 4096 * 2000  # 2000 pages per server
    pages_per_user: int = 50
    ttl: float = 30.0
    plot_slots: int = 48
    seed: int = 0
    #: latency samples before this time are not recorded (residual warm-up).
    warmup_seconds: float = 0.0

    def __post_init__(self) -> None:
        if len(self.users_per_slot) != self.schedule.num_slots:
            raise ConfigurationError(
                f"users_per_slot has {len(self.users_per_slot)} entries, "
                f"schedule has {self.schedule.num_slots} slots"
            )
        if max(self.schedule.counts) > self.num_cache_servers:
            raise ConfigurationError(
                "schedule asks for more cache servers than the fleet has"
            )
        if self.plot_slots < 1:
            raise ConfigurationError(
                f"plot_slots must be >= 1, got {self.plot_slots}"
            )

    @property
    def duration(self) -> float:
        return self.schedule.duration


@dataclass
class ExperimentReport:
    """Everything the Figs. 9-11 benches read off one scenario run."""

    scenario: str
    duration: float
    latencies: SlottedRecorder
    power_series: Dict[str, TimeSeries]
    energy_kwh: Dict[str, float]
    active_series: TimeSeries
    transitions: List[AppliedTransition]
    fetch_paths: Dict[str, int]
    total_requests: int
    db_requests: int
    hit_ratio: float

    def latency_percentiles(self, pct: float = 99.9) -> TimeSeries:
        """Per-plot-slot latency percentile (the Fig. 9 curves)."""
        return self.latencies.series("pct", pct_rank=pct)

    def peak_latency(self, pct: float = 99.9) -> float:
        """Worst per-slot percentile over the run (the spike height)."""
        series = self.latency_percentiles(pct)
        return max(series.values) if len(series) else 0.0

    def median_slot_latency(self, pct: float = 99.9) -> float:
        """Median across slots of the per-slot percentile (the baseline)."""
        series = self.latency_percentiles(pct)
        if not len(series):
            return 0.0
        ordered = sorted(series.values)
        return ordered[len(ordered) // 2]

    def spike_ratio(self, pct: float = 99.9) -> float:
        """Peak over baseline — ~1 means no transition spike (Proteus)."""
        baseline = self.median_slot_latency(pct)
        return self.peak_latency(pct) / baseline if baseline > 0 else 0.0

    def to_dict(self, pct: float = 99.9) -> dict:
        """A JSON-serializable summary (archived by benches and the CLI).

        Keeps the derived series (latency percentiles per plot slot, power
        per tier, active counts), not the raw samples.
        """
        return {
            "scenario": self.scenario,
            "duration": self.duration,
            "total_requests": self.total_requests,
            "db_requests": self.db_requests,
            "hit_ratio": self.hit_ratio,
            "fetch_paths": dict(self.fetch_paths),
            "energy_kwh": dict(self.energy_kwh),
            "transitions": [
                {"when": t.when, "n_old": t.n_old, "n_new": t.n_new,
                 "smooth": t.smooth}
                for t in self.transitions
            ],
            "latency_pct": pct,
            # a TimeSeries is a dataclass of two lists: {"times", "values"}
            "latency_series": asdict(self.latency_percentiles(pct)),
            "power_series": {
                tier: asdict(series) for tier, series in self.power_series.items()
            },
            "active_series": asdict(self.active_series),
        }

    def save(self, path, pct: float = 99.9) -> None:
        """Write :meth:`to_dict` as JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.to_dict(pct), indent=2) + "\n", encoding="utf-8"
        )


class ClusterExperiment:
    """One Table II scenario on the testbed: replays the ``n(t)`` schedule."""

    def __init__(self, spec: ScenarioSpec, config: ExperimentConfig) -> None:
        self.spec = spec
        self.config = config
        cfg = config
        if spec.dynamic:
            schedule = cfg.schedule
        else:
            schedule = static_schedule(
                cfg.num_cache_servers,
                cfg.schedule.num_slots,
                cfg.schedule.slot_seconds,
            )
        self.schedule = schedule
        self.testbed = SimTestbed(
            Sizing(
                duration=cfg.duration,
                seed=cfg.seed,
                catalogue_size=cfg.catalogue_size,
                cache_capacity_bytes=cfg.cache_capacity_bytes,
                pages_per_user=cfg.pages_per_user,
                num_web_servers=cfg.num_web_servers,
                num_db_shards=cfg.num_db_shards,
            ),
            spec.router_factory(cfg.num_cache_servers),
            random.Random(cfg.seed ^ 0xBEEF),
            self._record,
            ttl=cfg.ttl,
            initial_active=schedule.counts[0],
            retrieval=RetrievalConfig(coalesce_misses=spec.coalesce_misses),
        )
        self.actuator = ProvisioningActuator(
            self.testbed.cache, smooth=spec.smooth
        )
        plot_width = (cfg.duration - cfg.warmup_seconds) / cfg.plot_slots
        self.latencies = SlottedRecorder(plot_width, start=cfg.warmup_seconds)

    def _record(self, now: float, result: FetchResult) -> None:
        if now >= self.config.warmup_seconds:
            self.latencies.record(now, result.latency)

    def run(self) -> ExperimentReport:
        """Execute the scenario; returns the measurement report."""
        cfg = self.config
        testbed = self.testbed
        if self.spec.dynamic:
            self.actuator.install(cfg.schedule, testbed.loop)
        testbed.schedule_population(
            cfg.users_per_slot, cfg.schedule.slot_seconds
        )
        testbed.run()

        fetch_paths = {path.value: 0 for path in FetchPath}
        for web in testbed.webs:
            for path, count in web.stats.counts.items():
                fetch_paths[path.value] += count
        power_series = {"total": testbed.meter.total_series}
        power_series.update(testbed.meter.tier_series)
        return ExperimentReport(
            scenario=self.spec.name,
            duration=cfg.duration,
            latencies=self.latencies,
            power_series=power_series,
            energy_kwh=testbed.energy_kwh(),
            active_series=testbed.active_series,
            transitions=list(self.actuator.applied),
            fetch_paths=fetch_paths,
            total_requests=testbed.total_requests,
            db_requests=testbed.database.total_requests(),
            hit_ratio=testbed.cache.total_hit_ratio(),
        )


def run_scenarios(
    config: ExperimentConfig, specs: Optional[List[ScenarioSpec]] = None
) -> Dict[str, ExperimentReport]:
    """Run several scenarios under the identical config (the paper's method);
    *specs* defaults to the four of Table II."""
    reports: Dict[str, ExperimentReport] = {}
    for spec in specs or ScenarioSpec.all_four():
        reports[spec.name] = ClusterExperiment(spec, config).run()
    return reports
