"""Tests for the failure-injection experiment harness."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.failover import (
    TTL_SECONDS,
    FailoverConfig,
    FailoverExperiment,
)
from repro.resilience import FaultPlan, FaultSchedule


def crash(at, server_id, repair_at=None):
    return FaultSchedule().add(at, server_id, FaultPlan.killed(), repair_at)


def config(**overrides):
    defaults = dict(
        duration=60.0,
        num_servers=5,
        replicas=2,
        num_users=40,
        catalogue_size=2000,
        pages_per_user=20,
        slot_seconds=10.0,
        seed=2,
    )
    defaults.update(overrides)
    return FailoverConfig(**defaults)


class TestValidation:
    def test_failure_event_ordering(self):
        with pytest.raises(ConfigurationError):
            crash(10.0, 0, repair_at=5.0)
        with pytest.raises(ConfigurationError):
            crash(-1.0, 0)

    def test_unknown_server_rejected(self):
        with pytest.raises(ConfigurationError):
            config(failures=crash(5.0, 99))

    def test_failure_after_end_rejected(self):
        with pytest.raises(ConfigurationError):
            config(failures=crash(500.0, 0))


class TestRuns:
    def test_baseline_run_without_failures(self):
        report = FailoverExperiment(config()).run()
        assert report.total_requests > 1000
        assert report.failovers == 0
        # After warm-up the DB fraction settles low.
        assert report.db_fraction.values[-1] < 0.1

    def test_crash_spikes_db_fraction_then_recovers(self):
        report = FailoverExperiment(config(
            duration=90.0,
            failures=crash(40.0, 0, repair_at=60.0),
        )).run()
        values = report.db_fraction.values
        times = report.db_fraction.times
        # Compare against the slot immediately before the crash (earlier
        # slots still carry the cold-start decay).
        pre_crash = [v for t, v in zip(times, values) if 30 <= t < 40][-1]
        during = [v for t, v in zip(times, values) if 40 <= t < 60]
        after = [v for t, v in zip(times, values) if t >= 70]
        assert max(during) > 1.5 * pre_crash
        assert report.failovers > 0
        # Repair + cache refill brings the fallback rate back down.
        assert min(after) < max(during)

    def test_more_replicas_fail_over_more_and_fall_back_less(self):
        failures = crash(30.0, 0)
        r1 = FailoverExperiment(config(replicas=1, failures=failures)).run()
        r2 = FailoverExperiment(config(replicas=2, failures=failures)).run()
        assert r2.failovers > r1.failovers == 0
        # post-crash DB pressure strictly lower with a replica
        assert r2.db_reads < r1.db_reads

    def test_report_series_cover_the_run(self):
        report = FailoverExperiment(config()).run()
        assert report.db_fraction.times[-1] <= 60.0
        assert len(report.db_fraction) >= 5
        assert report.db_reads / report.total_requests < 0.6


class TestConfiguredTTL:
    def test_ttl_flows_to_the_cache_cluster(self):
        experiment = FailoverExperiment(config())
        assert experiment.testbed.cache.transitions.ttl == TTL_SECONDS == 60.0
