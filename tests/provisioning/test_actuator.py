"""Provisioning actuation (Section II): ``CacheCluster.scale_to`` carries
out each ``n(t) -> n(t+1)`` decision, and ``SimTestbed``'s slot loop
replays a schedule through it and powers drained servers off at each
deadline.  A zero TTL is an abrupt transition."""

from repro import obs
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.cache.server import PowerState
from repro.core.router import ProteusRouter
from repro.experiments.testbed import SimTestbed, Sizing
from repro.provisioning.policies import ProvisioningSchedule

CFG = optimal_config(1000)


def cluster(n=4, active=4):
    return CacheCluster(
        ProteusRouter(n, ring_size=2 ** 20),
        capacity_bytes=4096 * 100,
        initial_active=active,
        bloom_config=CFG,
    )


def replay(counts, ttl, slot_seconds=10.0):
    """Run a small testbed through the schedule *counts*; return the
    testbed and its report."""
    testbed = SimTestbed(
        Sizing(seed=7, catalogue_size=200, cache_capacity_bytes=4096 * 500,
               pages_per_user=5),
        ProteusRouter(4),
        ttl=ttl,
    )
    report = testbed.run(
        [4] * len(counts), slot_seconds,
        ProvisioningSchedule(slot_seconds, counts),
    )
    return testbed, report


def timeline_of(report):
    """The run's control-plane events, every ``slot.end`` aside."""
    return [(e.t, e.kind, e.fields) for e in report.timeline.events
            if e.kind != "slot.end"]


class TestApply:
    def test_smooth_apply_starts_transition(self):
        c = cluster()
        with obs.recording() as timeline:
            transition = c.scale_to(3, 0.0, 20.0)
        assert transition.n_old == 4 and transition.n_new == 3
        [begin] = timeline.of("transition.begin")
        assert begin.fields["smooth"] and begin.fields["digests"] == [3]
        assert c.transitions.in_transition(0.0)
        assert c.server(3).state is PowerState.DRAINING

    def test_abrupt_apply_has_no_window(self):
        c = cluster()
        c.scale_to(3, 0.0, 0.0)
        assert not c.transitions.in_transition(0.0)
        assert c.server(3).state is PowerState.OFF

    def test_abrupt_scale_to_begins_and_ends_at_once(self):
        c = cluster()
        with obs.recording() as timeline:
            transition = c.scale_to(2, 5.0, 0.0)
        assert transition.digests == {}
        assert [(e.t, e.kind, e.fields) for e in timeline.events] == [
            (5.0, "transition.begin",
             {"n_old": 4, "n_new": 2, "smooth": False, "digests": []}),
            (5.0, "transition.end",
             {"n_old": 4, "n_new": 2, "powered_off": [2, 3]}),
        ]

    def test_noop_returns_none(self):
        c = cluster()
        with obs.recording() as timeline:
            assert c.scale_to(4, 0.0, 20.0) is None
            assert c.scale_to(4, 0.0, 0.0) is None
        assert timeline.events == []


class TestInstall:
    def test_schedule_executes_on_loop(self):
        testbed, report = replay([3, 2, 2, 4], ttl=5.0)
        begins = report.timeline.of("transition.begin")
        assert [event.t for event in begins] == [10.0, 30.0]
        assert [event.fields["n_new"] for event in begins] == [2, 4]
        assert testbed.cache.active_count == 4

    def test_ttl_finalization_powers_off(self):
        testbed, report = replay([4, 3], ttl=5.0)
        [end] = report.timeline.of("transition.end")
        assert (end.t, end.fields["powered_off"]) == (15.0, [3])  # 10 + ttl
        assert testbed.cache.server(3).state is PowerState.OFF

    def test_a_repeated_count_inside_an_open_window_is_a_noop(self):
        # The window (15 s) outlasts a slot (10 s): the schedule's repeat
        # of 3 at t=20 meets an open window and must not raise.
        _, report = replay([4, 3, 3], ttl=15.0)
        assert timeline_of(report) == [
            (10.0, "transition.begin",
             {"n_old": 4, "n_new": 3, "smooth": True, "digests": [3]}),
            (25.0, "transition.end",
             {"n_old": 4, "n_new": 3, "powered_off": [3]}),
        ]

    def test_abrupt_install(self):
        testbed, report = replay([4, 2], ttl=0.0)
        assert testbed.cache.server(2).state is PowerState.OFF
        assert testbed.cache.server(3).state is PowerState.OFF
        assert [(t, kind) for t, kind, _ in timeline_of(report)] == [
            (10.0, "transition.begin"), (10.0, "transition.end"),
        ]
