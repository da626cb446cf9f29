"""Tests for the one simulated testbed the three experiments compose.

The golden values below were captured at the commit *before* the three
hand-wired copies of the testbed were replaced by ``SimTestbed``: they are
integers of seeded simulations, so any change of RNG draw order or event
order moves them.  Regenerate them only for a change that means to.
"""

import random

import pytest

from repro.core.router import ProteusRouter
from repro.experiments import autopilot
from repro.experiments.autopilot import AutopilotConfig, AutopilotExperiment
from repro.experiments.cluster import (
    ClusterExperiment,
    ExperimentConfig,
    ScenarioSpec,
)
from repro.experiments.failover import FailoverConfig, FailoverExperiment
from repro.experiments.testbed import SimTestbed, Sizing
from repro.provisioning.policies import ProvisioningSchedule
from repro.resilience import FaultPlan, FaultSchedule


def kill(at, server_id, clear_at=None):
    return FaultSchedule().add(at, server_id, FaultPlan.killed(), clear_at)


def moves(report):
    return [(t.n_old, t.n_new) for t in report.transitions]


class TestGoldenParity:
    """Every report field that RNG draw order or event order decides."""

    CLUSTER = {
        "Static": (8345, 62, {"hit_new": 8283, "miss_db": 62}, []),
        "Naive": (8306, 354, {"hit_new": 7952, "miss_db": 354},
                  [(4, 3), (3, 4)]),
        "Consistent": (8274, 460, {"hit_new": 7814, "miss_db": 460},
                       [(4, 3), (3, 4)]),
        "Proteus": (8343, 82, {"hit_new": 8114, "hit_old": 147, "miss_db": 82},
                    [(4, 3), (3, 4)]),
    }

    @pytest.mark.parametrize("spec", ScenarioSpec.all_four(), ids=lambda s: s.name)
    def test_cluster_experiment(self, spec):
        config = ExperimentConfig(
            schedule=ProvisioningSchedule(30.0, [4, 3, 3, 4]),
            users_per_slot=[40, 30, 30, 40],
            num_cache_servers=4,
            num_web_servers=2,
            num_db_shards=2,
            catalogue_size=2000,
            cache_capacity_bytes=4096 * 800,
            ttl=15.0,
            plot_slots=12,
            pages_per_user=20,
            seed=3,
            warmup_seconds=10.0,
        )
        report = ClusterExperiment(spec, config).run()
        total, db_requests, paths, transitions = self.CLUSTER[spec.name]
        assert report.total_requests == total
        assert report.db_requests == db_requests
        assert {k: v for k, v in report.fetch_paths.items() if v} == paths
        assert moves(report) == transitions

    AUTOPILOT = {
        False: (5635, [4, 3, 3, 3, 3, 3], [4, 4, 2, 2, 2, 3], [(4, 3)], 159),
        True: (5645, [4, 3, 4, 4, 4, 5], [4, 4, 2, 2, 2, 4],
               [(4, 3), (3, 4)], 190),
    }

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_autopilot_experiment(self, closed, monkeypatch):
        for name, value in [("NUM_WEB_SERVERS", 2), ("CATALOGUE_SIZE", 1500),
                            ("PAGES_PER_USER", 15)]:
            monkeypatch.setattr(autopilot, name, value)
        config = AutopilotConfig(
            users_per_slot=[30, 24, 18, 18, 24, 30],
            slot_seconds=20.0,
            num_servers=6,
            seed=5,
            faults=kill(45.0, 1, clear_at=110.0),
            health_feedback=closed,
        )
        report = AutopilotExperiment(config).run()
        total, active, healthy, transitions, remap = self.AUTOPILOT[closed]
        assert report.total_requests == report.served_requests == total
        assert report.active_counts == active
        assert report.healthy_counts == healthy
        assert moves(report) == transitions
        assert report.remap_misses_total == remap

    FAILOVER = {1: (4650, 812, 0), 2: (4695, 468, 349)}

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_failover_experiment(self, replicas):
        config = FailoverConfig(
            duration=60.0,
            num_servers=5,
            replicas=replicas,
            num_users=40,
            catalogue_size=2000,
            pages_per_user=20,
            slot_seconds=10.0,
            seed=2,
            failures=kill(25.0, 0, clear_at=45.0),
        )
        report = FailoverExperiment(config).run()
        assert (
            report.total_requests, report.db_reads, report.failovers
        ) == self.FAILOVER[replicas]


def make_testbed(duration=20.0, num_servers=3, record=lambda now, result: None):
    sizing = Sizing(
        duration=duration,
        seed=7,
        catalogue_size=500,
        cache_capacity_bytes=4096 * 2000,
        pages_per_user=10,
    )
    return SimTestbed(
        sizing, ProteusRouter(num_servers), random.Random(7), record, ttl=30.0
    )


class TestUsers:
    def test_every_fetch_reaches_the_recorder(self):
        seen = []
        testbed = make_testbed(record=lambda now, result: seen.append(now))
        testbed.resize_population(3)
        testbed.run()
        assert testbed.total_requests == len(seen) > 3 * 30
        assert seen == sorted(seen) and seen[-1] <= 20.0

    def test_retired_users_stop_issuing(self):
        testbed = make_testbed()
        testbed.prewarm = lambda: None
        testbed.schedule_population([4, 1], slot_seconds=5.0)
        leavers = list(testbed.population.active[:3])
        at_retirement = []
        # Scheduled after the slot-1 resize, so it fires right behind it.
        testbed.loop.schedule_at(
            5.0,
            lambda: at_retirement.extend(u.requests_issued for u in leavers),
        )
        testbed.run()
        (stayer,) = testbed.population.active
        assert stayer not in leavers
        assert [u.requests_issued for u in leavers] == at_retirement
        assert stayer.requests_issued > 2 * max(at_retirement)

    def test_prewarm_installs_each_page_at_its_routed_owner(self):
        testbed = make_testbed()
        testbed.schedule_population([5], slot_seconds=20.0)
        pages = {p for user in testbed.population.active for p in user.pages}
        assert sum(len(s.store) for s in testbed.cache.servers) == len(pages)
        testbed.run()
        assert testbed.database.total_requests() == 0  # nothing was cold


class TestFaultInjection:
    def test_only_killing_plans_become_crashes(self):
        testbed = make_testbed()
        testbed.inject_faults(
            FaultSchedule()
            .add(5.0, 0, FaultPlan.slow(0.2))
            .add(5.0, 1, FaultPlan.flaky(0.5))
            .add(5.0, 2, FaultPlan.killed())
        )
        testbed.loop.run_until(6.0)
        assert testbed.cache.failed_servers() == frozenset({2})

    def test_crash_is_repaired_inside_the_run(self):
        testbed = make_testbed()
        testbed.inject_faults(kill(5.0, 1, clear_at=10.0))
        testbed.loop.run_until(9.0)
        assert testbed.cache.failed_servers() == frozenset({1})
        testbed.loop.run_until(11.0)
        assert testbed.cache.failed_servers() == frozenset()

    def test_events_after_the_end_are_not_scheduled(self):
        testbed = make_testbed(duration=20.0)
        testbed.inject_faults(
            kill(5.0, 1, clear_at=20.0).add(25.0, 2, FaultPlan.killed())
        )
        assert len(testbed.loop) == 1  # the t=5 crash alone
        testbed.run()
        assert testbed.cache.failed_servers() == frozenset({1})


class TestPowerSampling:
    def test_one_sample_per_period_with_an_active_point_each(self):
        testbed = make_testbed(duration=60.0)
        testbed.run()
        times = [0.0, 15.0, 30.0, 45.0]  # 60 is not < duration
        assert testbed.meter.total_series.times == times
        assert testbed.active_series.times == times
        assert testbed.active_series.values == [3.0] * 4
        energy = testbed.energy_kwh()
        assert set(energy) == {"total", "cache", "web", "database"}
        assert energy["total"] == pytest.approx(
            energy["cache"] + energy["web"] + energy["database"]
        )

    def test_a_crashed_server_leaves_the_active_series(self):
        testbed = make_testbed(duration=60.0)
        testbed.inject_faults(kill(20.0, 0))
        testbed.run()
        assert testbed.active_series.values == [3.0, 3.0, 2.0, 2.0]
