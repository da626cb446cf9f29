"""Tests for the simulated testbed and its one experiment runner.

The golden values below were captured at the commit *before* the three
hand-wired copies of the testbed were replaced by ``SimTestbed``: they are
integers of seeded simulations, so any change of RNG draw order or event
order moves them.  Regenerate them only for a change that means to.  The
crash runs' row moved once, when they joined the warm start and the seed
stream every other run uses.
"""

import collections
import json

import pytest

from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError
from repro.experiments.testbed import (
    PER_SERVER_RATE,
    SCENARIOS,
    SimTestbed,
    Sizing,
    run_scenarios,
    scenario,
)
from repro.provisioning.controller import DelayFeedbackController
from repro.provisioning.policies import ProvisioningSchedule, static_schedule
from repro.resilience import FaultPlan, FaultSchedule


def kill(at, server_id, clear_at=None):
    return FaultSchedule().add(at, server_id, FaultPlan.killed(), clear_at)


def moves(report):
    return [(t.fields["n_old"], t.fields["n_new"]) for t in report.transitions]


#: the Table II runs' testbed (2 web servers, 2 DB shards, 800 pages per
#: cache server) and the autopilot's (2 web servers, 600 pages per server)
CLUSTER_SIZING = Sizing(
    seed=3, catalogue_size=2000, cache_capacity_bytes=4096 * 800,
    pages_per_user=20, num_web_servers=2, num_db_shards=2,
)
AUTOPILOT_SIZING = Sizing(
    seed=5, catalogue_size=1500, cache_capacity_bytes=4096 * 600,
    pages_per_user=15, num_web_servers=2, num_db_shards=4,
    power_sample_period=5.0,
)


def crash_run(replicas, faults):
    """The crash run: 40 users on 5 replicated servers, all on, 60 s."""
    testbed = SimTestbed(
        Sizing(seed=2, catalogue_size=2000,
               cache_capacity_bytes=4096 * 2000, pages_per_user=20),
        ProteusRouter(5, 2 ** 24, replicas),
        ttl=60.0,
    )
    return testbed.run([40] * 6, 10.0, static_schedule(5, 6, 10.0), faults)


def autopilot_run(closed, faults):
    testbed = SimTestbed(AUTOPILOT_SIZING, ProteusRouter(6), ttl=60.0)
    controller = DelayFeedbackController(
        num_servers=6, min_servers=2, per_server_rate=PER_SERVER_RATE
    )
    return testbed.run([30, 24, 18, 18, 24, 30], 20.0, controller, faults,
                       health_feedback=closed)


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

    @pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
    def test_cluster_experiment(self, spec):
        (report,) = run_scenarios(
            CLUSTER_SIZING, 4, 15.0, ProvisioningSchedule(30.0, [4, 3, 3, 4]),
            [40, 30, 30, 40], [spec], plot_slots=12, warmup_seconds=10.0,
        ).values()
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
    def test_autopilot_experiment(self, closed):
        report = autopilot_run(closed, kill(45.0, 1, clear_at=110.0))
        total, active, healthy, transitions, remap = self.AUTOPILOT[closed]
        assert report.total_requests == report.served_requests == total
        assert report.active_counts == active
        assert report.healthy_counts == healthy
        assert moves(report) == transitions
        assert report.remap_misses_total == remap

    FAILOVER = {1: (4710, 418, 0), 2: (4753, 75, 348)}

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_failover_experiment(self, replicas):
        report = crash_run(replicas, kill(25.0, 0, clear_at=45.0))
        assert (
            report.total_requests, report.db_requests, report.failovers
        ) == self.FAILOVER[replicas]


def abrupt(n_old, n_new, t, powered_off):
    """The timeline of one abrupt transition: it ends where it begins."""
    return [
        (t, "transition.begin",
         {"n_old": n_old, "n_new": n_new, "smooth": False, "digests": []}),
        (t, "transition.end",
         {"n_old": n_old, "n_new": n_new, "powered_off": powered_off}),
    ]


class TestTransitionGolden:
    """One scale-down and one scale-up under each dynamic scenario: the
    whole control-plane record (every event but ``slot.end``), the per-slot
    database load and the energy.  An abrupt transition begins and ends at
    the same ``t``; a smooth one ends at its TTL deadline."""

    SIZING = Sizing(seed=5, catalogue_size=800, cache_capacity_bytes=4096 * 300,
                    pages_per_user=10, num_web_servers=1, num_db_shards=2)

    GOLDEN = {
        "Naive": (
            abrupt(3, 2, 15.0, [2]) + abrupt(2, 3, 30.0, []),
            [0, 69, 38],
            {"total": 0.0032968980510160333, "cache": 0.0014866875,
             "database": 0.001187488328793811, "web": 0.0006227222222222223},
        ),
        "Consistent": (
            abrupt(3, 2, 15.0, [2]) + abrupt(2, 3, 30.0, []),
            [0, 2, 2],
            {"total": 0.003279878566453121, "cache": 0.0014889444444444444,
             "database": 0.0011678785664531208, "web": 0.0006230555555555555},
        ),
        "Proteus": (
            [
                (15.0, "transition.begin",
                 {"n_old": 3, "n_new": 2, "smooth": True, "digests": [2]}),
                (23.0, "transition.end",
                 {"n_old": 3, "n_new": 2, "powered_off": [2]}),
                (30.0, "transition.begin",
                 {"n_old": 2, "n_new": 3, "smooth": True, "digests": [0, 1]}),
                (38.0, "transition.end",
                 {"n_old": 2, "n_new": 3, "powered_off": []}),
            ],
            [0, 3, 6],
            {"total": 0.0035511850781255695, "cache": 0.001760375,
             "database": 0.0011677267447922366, "web": 0.0006230833333333333},
        ),
    }

    @pytest.fixture(scope="class")
    def reports(self):
        return run_scenarios(
            self.SIZING, 3, 8.0, ProvisioningSchedule(15.0, [3, 2, 3]),
            [16, 16, 16],
            [scenario("naive"), scenario("consistent"),
             scenario("proteus")],
        )

    @pytest.mark.parametrize("name", ["Naive", "Consistent", "Proteus"])
    def test_timeline_db_load_and_energy(self, reports, name):
        report = reports[name]
        timeline, db_per_slot, energy = self.GOLDEN[name]
        assert [
            (event.t, event.kind, event.fields)
            for event in report.timeline.events if event.kind != "slot.end"
        ] == timeline
        assert report.db_requests_per_slot == db_per_slot
        assert report.energy_kwh == energy


#: report series -> the ``slot.end`` field it reads
SLOT_SERIES = {
    "requests_per_slot": "requests", "db_requests_per_slot": "db_requests",
    "active_counts": "active", "healthy_counts": "healthy",
    "required_counts": "required", "failed_sets": "failed",
    "measured_delays": "delay",
}


class TestSlotEnd:
    """A slot's end is one ``slot.end`` event on the run's timeline, at
    the boundary where the slot is measured (a controller decides 1e-6 s
    ahead of it), and the report's seven per-slot series are its fields."""

    @pytest.fixture(scope="class", params=["schedule", "controller"])
    def run(self, request):
        faults = kill(6.0, 1, clear_at=12.0)
        if request.param == "schedule":
            return make_testbed().run([4] * 4, 5.0, all_on(4, 5.0), faults), 0.0
        controller = DelayFeedbackController(
            num_servers=3, min_servers=1, per_server_rate=PER_SERVER_RATE
        )
        report = make_testbed().run([4, 8, 4, 4], 5.0, controller, faults,
                                    health_feedback=True)
        return report, 1e-6

    def test_one_event_per_slot_at_its_boundary(self, run):
        report, lead = run
        assert [event.t for event in report.timeline.of("slot.end")] == [
            slot * 5.0 - lead for slot in range(1, 5)
        ]

    def test_fields_are_json_plain(self, run):
        report, _ = run
        for event in report.timeline.of("slot.end"):
            assert set(event.fields) == set(SLOT_SERIES.values())
            assert json.loads(json.dumps(event.fields)) == event.fields

    def test_each_series_is_its_field(self, run):
        report, _ = run
        ends = report.timeline.of("slot.end")
        for series, field in SLOT_SERIES.items():
            assert getattr(report, series) == [e.fields[field] for e in ends]


def make_testbed(num_servers=3):
    sizing = Sizing(
        seed=7,
        catalogue_size=500,
        cache_capacity_bytes=4096 * 2000,
        pages_per_user=10,
    )
    return SimTestbed(sizing, ProteusRouter(num_servers), ttl=30.0)


def all_on(slots, slot_seconds, num_servers=3):
    return static_schedule(num_servers, slots, slot_seconds)


class TestUsers:
    def test_every_fetch_reaches_the_recorder(self):
        report = make_testbed().run([3], 20.0, all_on(1, 20.0))
        recorded = [
            len(report.latencies.samples(s)) for s in report.latencies.slots()
        ]
        assert report.total_requests == sum(recorded) > 3 * 30
        assert report.total_requests == sum(report.fetch_paths.values())
        assert report.requests_per_slot == [report.total_requests]
        assert report.latencies.slots()[-1] < 48  # nothing after the end

    def test_retired_users_stop_issuing(self):
        testbed = make_testbed()
        testbed.prewarm = lambda: None
        issued = collections.Counter()
        step = testbed._user_request

        def counted(user):
            before = testbed.total_requests
            step(user)
            issued[user] += testbed.total_requests - before

        testbed._user_request = counted
        leavers, at_retirement = [], []
        testbed.loop.schedule_at(
            1.0, lambda: leavers.extend(testbed.population.active[:3])
        )
        # Just behind the slot-1 resize.
        testbed.loop.schedule_at(
            5.0 + 1e-9,
            lambda: at_retirement.extend(issued[u] for u in leavers),
        )
        testbed.run([4, 1], 5.0, all_on(2, 5.0))
        (stayer,) = testbed.population.active
        assert len(leavers) == 3 and stayer not in leavers
        assert [issued[u] for u in leavers] == at_retirement
        assert issued[stayer] > 2 * max(at_retirement)

    def test_prewarm_installs_each_page_at_its_routed_owner(self):
        testbed = make_testbed()
        testbed.resize_population(5)
        testbed.prewarm()
        pages = {p for user in testbed.population.active for p in user.pages}
        assert sum(len(s.store) for s in testbed.cache.servers) == len(pages)
        report = make_testbed().run([5], 20.0, all_on(1, 20.0))
        assert report.db_requests == 0  # nothing was cold


class TestFaultInjection:
    def test_only_killing_plans_become_crashes(self):
        report = make_testbed().run(
            [0, 0], 5.0, all_on(2, 5.0),
            FaultSchedule()
            .add(5.0, 0, FaultPlan.slow(0.2))
            .add(5.0, 1, FaultPlan.flaky(0.5))
            .add(5.0, 2, FaultPlan.killed()),
        )
        assert report.failed_sets == [[], [2]]

    def test_crash_is_repaired_inside_the_run(self):
        report = make_testbed().run(
            [0] * 4, 4.0, all_on(4, 4.0), kill(5.0, 1, clear_at=10.0)
        )
        # Slot ends at 4, 8, 12 and 16 s: down from 5 s to 10 s.
        assert report.failed_sets == [[], [1], [], []]

    def test_events_after_the_end_are_not_scheduled(self):
        testbed = make_testbed()
        testbed.run([0, 0], 10.0, all_on(2, 10.0), kill(5.0, 1, clear_at=20.0))
        assert testbed.cache.failed_servers() == frozenset({1})


class TestPowerSampling:
    def test_one_sample_per_period_with_an_active_point_each(self):
        report = make_testbed().run([0] * 4, 15.0, all_on(4, 15.0))
        times = [0.0, 15.0, 30.0, 45.0]  # 60 is not < duration
        assert report.power_series["total"].times == times
        assert report.active_series.times == times
        assert report.active_series.values == [3.0] * 4
        energy = report.energy_kwh
        assert set(energy) == {"total", "cache", "web", "database"}
        assert energy["total"] == pytest.approx(
            energy["cache"] + energy["web"] + energy["database"]
        )

    def test_a_crashed_server_leaves_the_active_series(self):
        report = make_testbed().run([0] * 4, 15.0, all_on(4, 15.0), kill(20.0, 0))
        assert report.active_series.values == [3.0, 3.0, 2.0, 2.0]


class TestRunValidation:
    """Each input the three experiment configs once rejected still raises,
    before any of the run is simulated."""

    def run(self, users=(10, 10), slot_seconds=10.0, provisioner=None, **kw):
        provisioner = provisioner or all_on(2, 10.0)
        return make_testbed().run(list(users), slot_seconds, provisioner, **kw)

    def test_slot_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            self.run(users=[10, 10, 10])
        with pytest.raises(ConfigurationError):
            self.run(slot_seconds=5.0)

    def test_oversubscribed_schedule(self):
        with pytest.raises(ConfigurationError):
            self.run(provisioner=ProvisioningSchedule(10.0, [4, 4]))

    def test_plot_slots_below_one(self):
        with pytest.raises(ConfigurationError):
            self.run(plot_slots=0)

    def test_bad_slot_seconds(self):
        controller = DelayFeedbackController(num_servers=3)
        with pytest.raises(ConfigurationError):
            self.run(slot_seconds=0.0, provisioner=controller)

    def test_empty_workload(self):
        with pytest.raises(ConfigurationError):
            self.run(users=[], provisioner=DelayFeedbackController(num_servers=3))

    def test_min_servers_out_of_range(self):
        for bad in (0, 4):
            with pytest.raises(ConfigurationError):
                DelayFeedbackController(num_servers=3, min_servers=bad)

    def test_controller_sized_for_another_fleet(self):
        with pytest.raises(ConfigurationError):
            self.run(provisioner=DelayFeedbackController(num_servers=6))

    def test_bad_ttl(self):
        with pytest.raises(ConfigurationError):
            SimTestbed(CLUSTER_SIZING, ProteusRouter(3), ttl=-1.0)
        # A zero TTL is an abrupt testbed (Naive, Consistent), not an error.
        assert SimTestbed(CLUSTER_SIZING, ProteusRouter(3), ttl=0.0).ttl == 0.0

    def test_fault_on_unknown_server(self):
        with pytest.raises(ConfigurationError):
            self.run(faults=kill(5.0, 99))

    def test_fault_after_the_end_of_the_run(self):
        with pytest.raises(ConfigurationError):
            self.run(faults=kill(20.0, 0))

    def test_health_feedback_needs_a_controller(self):
        with pytest.raises(ConfigurationError):
            self.run(health_feedback=True)


class TestScheduleWithFaults:
    """A Table II schedule run takes a crash like any other run."""

    def test_a_crash_shows_in_a_schedule_run(self):
        def run(faults):
            (report,) = run_scenarios(
                CLUSTER_SIZING, 4, 15.0,
                ProvisioningSchedule(30.0, [4, 3, 3, 4]), [40, 30, 30, 40],
                [scenario("proteus")], faults=faults,
            ).values()
            return report

        quiet, crashed = run(None), run(kill(35.0, 1, clear_at=80.0))
        assert crashed.db_requests > quiet.db_requests
        assert crashed.failovers == 0  # r = 1: nothing to fail over to
        assert any(crashed.failed_sets) and not any(quiet.failed_sets)
