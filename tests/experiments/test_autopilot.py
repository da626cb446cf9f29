"""Tests for the closed-loop autopilot experiment harness."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import autopilot
from repro.experiments.autopilot import (
    NEVER_RECOVERED,
    AutopilotConfig,
    AutopilotExperiment,
    AutopilotReport,
)
from repro.core.retrieval import FetchPath
from repro.resilience import FaultPlan, FaultSchedule
from repro.resilience.admission import VirtualQueueAdmission
from repro.sim.metrics import SlottedRecorder, TimeSeries
from repro.web.frontend import WebServer


@pytest.fixture(autouse=True)
def small_testbed(monkeypatch):
    """A smaller testbed than the bench's, so every run takes seconds."""
    monkeypatch.setattr(autopilot, "NUM_WEB_SERVERS", 2)
    monkeypatch.setattr(autopilot, "CATALOGUE_SIZE", 1500)
    monkeypatch.setattr(autopilot, "PAGES_PER_USER", 15)


def config(**overrides):
    defaults = dict(
        users_per_slot=[30, 24, 18, 18, 24, 30],
        slot_seconds=20.0,
        num_servers=6,
        seed=5,
    )
    defaults.update(overrides)
    return AutopilotConfig(**defaults)


def kill(at, server_id, clear_at=None):
    schedule = FaultSchedule()
    schedule.add(at=at, server_id=server_id, plan=FaultPlan.killed(),
                 clear_at=clear_at)
    return schedule


class TestValidation:
    def test_rejects_empty_workload(self):
        with pytest.raises(ConfigurationError):
            config(users_per_slot=[])

    def test_rejects_bad_slot_seconds(self):
        with pytest.raises(ConfigurationError):
            config(slot_seconds=0.0)

    def test_rejects_min_servers_out_of_range(self):
        with pytest.raises(ConfigurationError):
            config(min_servers=0)
        with pytest.raises(ConfigurationError):
            config(min_servers=7)

    def test_rejects_fault_on_unknown_server(self):
        with pytest.raises(ConfigurationError):
            config(faults=kill(10.0, 99))

    def test_duration_and_slots(self):
        cfg = config()
        assert cfg.num_slots == 6
        assert cfg.duration == 120.0


class TestOpenLoop:
    def test_defaults_are_the_open_loop(self):
        report = AutopilotExperiment(config()).run()
        assert report.config_label == "open_loop"
        assert report.availability == 1.0
        assert report.emergency_scale_ups == 0
        assert report.vetoed_scale_downs == 0
        assert report.health_history == []

    def test_fixed_ttl_windows(self):
        experiment = AutopilotExperiment(config(ttl_seconds=25.0))
        manager = experiment.cache.transitions
        begin, windows = manager.begin, []

        def recording(*args, **kwargs):
            transition = begin(*args, **kwargs)
            windows.append(transition.deadline - transition.started_at)
            return transition

        manager.begin = recording
        experiment.run()
        assert windows and all(w == pytest.approx(25.0) for w in windows)

    def test_deterministic_given_the_seed(self):
        first = AutopilotExperiment(config()).run()
        second = AutopilotExperiment(config()).run()
        assert first.active_counts == second.active_counts
        assert first.measured_delays == second.measured_delays
        assert first.total_requests == second.total_requests


class TestAvailability:
    def test_a_shed_fetch_is_offered_but_not_served(self):
        # No config field arms admission control, so swap in a web server
        # built with it: a cold start against a depth-1 DB queue sheds.
        experiment = AutopilotExperiment(config())
        testbed = experiment.testbed
        testbed.prewarm = lambda: None
        testbed.webs[:] = [
            WebServer(
                0, testbed.cache, testbed.database,
                admission=VirtualQueueAdmission(max_depth=1),
            )
        ]
        report = experiment.run()
        shed = testbed.webs[0].stats.counts[FetchPath.SHED]
        assert shed > 0
        assert report.served_requests == report.total_requests - shed
        assert report.availability < 1.0
        assert report.to_dict()["availability"] == report.availability


class TestClosedLoop:
    def test_kill_triggers_emergency_scale_up(self):
        # Kill during the valley: delay-only control stays blind, the
        # health loop must react.
        faults = kill(45.0, 1, clear_at=110.0)
        open_report = AutopilotExperiment(config(faults=faults)).run()
        closed_report = AutopilotExperiment(
            config(faults=faults, health_feedback=True)
        ).run()
        assert closed_report.config_label == "closed_loop"
        assert closed_report.emergency_scale_ups >= 1
        assert closed_report.availability == 1.0
        assert len(closed_report.health_history) == len(
            closed_report.active_counts
        )
        assert closed_report.recovery_slots(45.0) <= open_report.recovery_slots(
            45.0
        )

    def test_failed_sets_track_the_schedule(self):
        report = AutopilotExperiment(
            config(faults=kill(45.0, 1, clear_at=110.0), health_feedback=True)
        ).run()
        fault_slots = [i for i, s in enumerate(report.failed_sets) if s]
        assert fault_slots, "the kill never showed up in failed_sets"
        assert all(report.failed_sets[i] == frozenset({1})
                   for i in fault_slots)

    def test_to_dict_is_json_ready(self):
        import json

        report = AutopilotExperiment(
            config(health_feedback=True)
        ).run()
        payload = report.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["config"] == "closed_loop"
        assert len(payload["active_counts"]) == 6
        assert payload["remap_misses_total"] == report.remap_misses_total


class TestRecoveryMetrics:
    def make_report(self, healthy, required):
        return AutopilotReport(
            config_label="synthetic",
            duration=len(healthy) * 10.0,
            slot_seconds=10.0,
            total_requests=1,
            served_requests=1,
            active_counts=list(healthy),
            healthy_counts=list(healthy),
            failed_sets=[frozenset() for _ in healthy],
            required_counts=list(required),
            measured_delays=[0.0] * len(healthy),
            arrival_rates=[0.0] * len(healthy),
            health_history=[],
            latencies=SlottedRecorder(10.0),
            transitions=[],
            energy_kwh={},
            active_series=TimeSeries(),
            emergency_scale_ups=0,
            vetoed_scale_downs=0,
        )

    def test_recovery_counts_slots_until_requirement_met(self):
        report = self.make_report(
            healthy=[4, 3, 3, 4, 4], required=[4, 4, 4, 4, 4]
        )
        assert report.recovery_slots(5.0) == 3

    def test_never_recovered_sentinel(self):
        report = self.make_report(healthy=[4, 3, 3], required=[4, 4, 4])
        assert report.recovery_slots(5.0) == NEVER_RECOVERED

    def test_underprovisioned_horizon(self):
        report = self.make_report(
            healthy=[4, 3, 3, 3, 4], required=[4, 4, 4, 4, 4]
        )
        assert report.underprovisioned_slots(5.0) == 3
        assert report.underprovisioned_slots(5.0, horizon_slots=2) == 2

    def test_fault_outside_run_rejected(self):
        report = self.make_report(healthy=[4], required=[4])
        with pytest.raises(ConfigurationError):
            report.recovery_slots(500.0)
        with pytest.raises(ConfigurationError):
            report.underprovisioned_slots(500.0)
