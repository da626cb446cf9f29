"""Tests for the crash runs: a static schedule plus a fault script over a
replicated tier."""

import pytest

from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError
from repro.experiments.testbed import SimTestbed, Sizing
from repro.provisioning.policies import ProvisioningSchedule, static_schedule
from repro.resilience import FaultPlan, FaultSchedule

NUM_SERVERS = 5
SLOT_SECONDS = 10.0


def crash(at, server_id, repair_at=None):
    return FaultSchedule().add(at, server_id, FaultPlan.killed(), repair_at)


def crash_testbed(replicas=2):
    return SimTestbed(
        Sizing(seed=2, catalogue_size=2000,
               cache_capacity_bytes=4096 * 2000, pages_per_user=20),
        ProteusRouter(NUM_SERVERS, 2 ** 24, replicas),
        ttl=60.0,
    )


def run(replicas=2, failures=None, duration=60.0):
    slots = int(duration // SLOT_SECONDS)
    return crash_testbed(replicas).run(
        [40] * slots, SLOT_SECONDS,
        static_schedule(NUM_SERVERS, slots, SLOT_SECONDS), failures,
    )


class TestValidation:
    def test_failure_event_ordering(self):
        with pytest.raises(ConfigurationError):
            crash(10.0, 0, repair_at=5.0)
        with pytest.raises(ConfigurationError):
            crash(-1.0, 0)

    def test_unknown_server_rejected(self):
        with pytest.raises(ConfigurationError):
            run(failures=crash(5.0, 99))

    def test_failure_after_end_rejected(self):
        with pytest.raises(ConfigurationError):
            run(failures=crash(500.0, 0))


class TestRuns:
    def test_baseline_run_without_failures(self):
        report = run()
        assert report.total_requests > 1000
        assert report.failovers == 0
        # Against a warm tier the DB fraction stays low.
        assert report.db_fraction.values[-1] < 0.1

    def test_crash_spikes_db_fraction_then_recovers(self):
        report = run(duration=90.0, failures=crash(40.0, 0, repair_at=60.0))
        db_fraction = report.db_fraction
        values, times = db_fraction.values, db_fraction.times
        pre_crash = [v for t, v in zip(times, values) if 30 <= t < 40][-1]
        during = [v for t, v in zip(times, values) if 40 <= t < 60]
        after = [v for t, v in zip(times, values) if t >= 70]
        assert max(during) > 1.5 * pre_crash
        assert report.failovers > 0
        # Repair + cache refill brings the fallback rate back down.
        assert min(after) < max(during)

    def test_more_replicas_fail_over_more_and_fall_back_less(self):
        failures = crash(30.0, 0)
        r1 = run(replicas=1, failures=failures)
        r2 = run(replicas=2, failures=failures)
        assert r2.failovers > r1.failovers == 0
        # post-crash DB pressure strictly lower with a replica
        assert r2.db_requests < r1.db_requests

    def test_report_series_cover_the_run(self):
        report = run()
        db_fraction = report.db_fraction
        assert db_fraction.times[-1] <= 60.0
        assert len(db_fraction) >= 5
        assert report.db_requests / report.total_requests < 0.6


class TestConfiguredTTL:
    def test_ttl_flows_to_the_cache_cluster(self):
        testbed = crash_testbed()
        testbed.run([10, 10], SLOT_SECONDS,
                    ProvisioningSchedule(SLOT_SECONDS, [5, 4]))
        transition = testbed.cache.transitions.current(SLOT_SECONDS)
        assert (transition.started_at, transition.ttl) == (SLOT_SECONDS, 60.0)
