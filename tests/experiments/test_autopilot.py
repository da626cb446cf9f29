"""Tests for the closed-loop autopilot: a controller provisioning the
testbed online."""

import pytest

from repro.core.retrieval import FetchPath
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError
from repro.experiments.testbed import (
    NEVER_RECOVERED,
    PER_SERVER_RATE,
    RunReport,
    SimTestbed,
    Sizing,
)
from repro.obs import Timeline, emit, recording
from repro.provisioning.controller import DelayFeedbackController
from repro.resilience import FaultPlan, FaultSchedule
from repro.resilience.admission import VirtualQueueAdmission
from repro.sim.metrics import SlottedRecorder, TimeSeries
from repro.web.frontend import WebServer

#: a smaller testbed than the bench's, so every run takes seconds
SIZING = Sizing(
    seed=5,
    catalogue_size=1500,
    cache_capacity_bytes=4096 * 600,
    pages_per_user=15,
    num_web_servers=2,
    num_db_shards=4,
    power_sample_period=5.0,
)
USERS = [30, 24, 18, 18, 24, 30]


class Autopilot:
    """One online-control run: a testbed and the controller it answers to."""

    def __init__(self, ttl=60.0, min_servers=2):
        self.testbed = SimTestbed(SIZING, ProteusRouter(6), ttl=ttl)
        self.controller = DelayFeedbackController(
            num_servers=6, min_servers=min_servers,
            per_server_rate=PER_SERVER_RATE,
        )

    def run(self, users=USERS, slot_seconds=20.0, faults=None,
            health_feedback=False):
        return self.testbed.run(users, slot_seconds, self.controller, faults,
                                health_feedback=health_feedback)


def kill(at, server_id, clear_at=None):
    schedule = FaultSchedule()
    schedule.add(at=at, server_id=server_id, plan=FaultPlan.killed(),
                 clear_at=clear_at)
    return schedule


@pytest.fixture(scope="module")
def open_report():
    return Autopilot().run()


class TestValidation:
    def test_rejects_empty_workload(self):
        with pytest.raises(ConfigurationError):
            Autopilot().run(users=[])

    def test_rejects_bad_slot_seconds(self):
        with pytest.raises(ConfigurationError):
            Autopilot().run(slot_seconds=0.0)

    def test_rejects_min_servers_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Autopilot(min_servers=0)
        with pytest.raises(ConfigurationError):
            Autopilot(min_servers=7)

    def test_rejects_fault_on_unknown_server(self):
        with pytest.raises(ConfigurationError):
            Autopilot().run(faults=kill(10.0, 99))

    def test_duration_and_slots(self, open_report):
        assert len(open_report.active_counts) == 6
        assert open_report.duration == 120.0


class TestOpenLoop:
    def test_defaults_are_the_open_loop(self, open_report):
        report = open_report
        assert report.provisioner == "open_loop"
        assert report.availability == 1.0
        assert report.emergency_scale_ups == 0
        assert report.vetoed_scale_downs == 0

    def test_fixed_ttl_windows(self):
        experiment = Autopilot(ttl=25.0)
        manager = experiment.testbed.cache.transitions
        begin, windows = manager.begin, []

        def recording(*args, **kwargs):
            transition = begin(*args, **kwargs)
            windows.append(transition.deadline - transition.started_at)
            return transition

        manager.begin = recording
        experiment.run()
        # n(0) is an abrupt power-up; every later transition drains 25 s.
        assert windows[0] == 0.0
        assert windows[1:] and all(
            w == pytest.approx(25.0) for w in windows[1:]
        )

    def test_deterministic_given_the_seed(self, open_report):
        first = open_report
        second = Autopilot().run()
        assert first.active_counts == second.active_counts
        assert first.measured_delays == second.measured_delays
        assert first.total_requests == second.total_requests


class TestAvailability:
    def test_a_shed_fetch_is_offered_but_not_served(self):
        # No run input arms admission control, so swap in a web server
        # built with it: a cold start against a depth-1 DB queue sheds.
        experiment = Autopilot()
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
        open_report = Autopilot().run(faults=faults)
        closed_report = Autopilot().run(faults=faults, health_feedback=True)
        assert closed_report.provisioner == "closed_loop"
        assert closed_report.emergency_scale_ups >= 1
        assert closed_report.availability == 1.0
        assert closed_report.recovery_slots(45.0) <= open_report.recovery_slots(
            45.0
        )

    def test_failed_sets_track_the_schedule(self):
        report = Autopilot().run(
            faults=kill(45.0, 1, clear_at=110.0), health_feedback=True
        )
        fault_slots = [i for i, s in enumerate(report.failed_sets) if s]
        assert fault_slots, "the kill never showed up in failed_sets"
        assert all(report.failed_sets[i] == [1] for i in fault_slots)

    def test_to_dict_is_json_ready(self):
        import json

        report = Autopilot().run(health_feedback=True)
        payload = report.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["config"] == "closed_loop"
        assert len(payload["active_counts"]) == 6
        assert payload["remap_misses_total"] == report.remap_misses_total


class TestRecoveryMetrics:
    def make_report(self, healthy, required):
        timeline = Timeline()
        with recording(timeline):
            for slot, (ok, needed) in enumerate(zip(healthy, required)):
                emit("slot.end", 10.0 * (slot + 1), requests=0,
                     db_requests=0, active=ok, healthy=ok, required=needed,
                     failed=[], delay=0.0)
        return RunReport(
            provisioner="synthetic",
            slot_seconds=10.0,
            total_requests=1,
            fetch_paths={path.value: 0 for path in FetchPath},
            db_requests=0,
            failovers=0,
            hit_ratio=1.0,
            latencies=SlottedRecorder(10.0),
            power_series={},
            active_series=TimeSeries(),
            energy_kwh={},
            timeline=timeline,
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
