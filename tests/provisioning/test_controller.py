"""Tests for the delay-feedback controller (paper Section VI knobs)."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.provisioning.controller import (
    DEFAULT_DELAY_BOUND,
    DEFAULT_DELAY_REFERENCE,
    DelayFeedbackController,
    run_feedback_loop,
)


def controller(**kwargs):
    kwargs.setdefault("num_servers", 10)
    return DelayFeedbackController(**kwargs)


@pytest.fixture
def timeline():
    """The controller's decisions during the test."""
    with obs.recording() as recorded:
        yield recorded


def decisions(timeline):
    return [(event.kind, event.fields) for event in timeline.events]


def emergency(n, to, reason):
    return ("controller.emergency", {"n": n, "to": to, "reason": reason})


def veto(n, wanted, reason):
    return ("controller.veto", {"n": n, "wanted": wanted, "reason": reason})


class TestPaperKnobs:
    def test_defaults_match_paper(self):
        assert DEFAULT_DELAY_BOUND == 0.5
        assert DEFAULT_DELAY_REFERENCE == 0.4


class TestControllerSteps:
    def test_starts_at_full_fleet(self):
        assert controller().current == 10

    def test_scale_up_above_reference(self):
        ctl = controller()
        ctl.reset(5)
        assert ctl.update(0.45, arrival_rate=500) == 6

    def test_aggressive_scale_up_above_bound(self):
        ctl = controller()
        ctl.reset(5)
        new = ctl.update(1.5, arrival_rate=500)  # 3x the bound
        assert new >= 7

    def test_scale_down_with_headroom(self):
        ctl = controller(per_server_rate=200.0)
        # Low delay, light load: dropping a server keeps projected delay OK.
        new = ctl.update(0.05, arrival_rate=100.0)
        assert new == 9

    def test_no_scale_down_without_headroom(self):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(2)
        # low measured delay but load too high for 1 server
        assert ctl.update(0.05, arrival_rate=500.0) == 2

    def test_dead_band_holds_steady(self):
        ctl = controller()
        ctl.reset(5)
        # between reference*margin and reference: no change
        assert ctl.update(0.35, arrival_rate=100.0) == 5

    def test_never_exceeds_fleet_or_floor(self):
        ctl = controller(min_servers=2)
        ctl.reset(10)
        assert ctl.update(5.0, arrival_rate=100.0) == 10
        ctl.reset(2)
        assert ctl.update(0.0, arrival_rate=0.0) == 2

    def test_history_recorded(self):
        # update() returns the count it commands; the caller keeps the
        # series (run_feedback_loop's schedule is one)
        ctl = controller()
        history = [ctl.current] + [ctl.update(0.45, 100.0) for _ in range(2)]
        assert len(history) == 3  # initial + 2 updates
        assert history[-1] == ctl.current

    def test_reset_commands_a_count_and_restarts_history(self):
        ctl = controller(min_servers=2)
        ctl.update(0.45, 100.0)
        ctl.reset(4)
        assert ctl.current == 4
        assert ctl.update(0.45, 100.0) == 5
        for out_of_range in (1, 11):
            with pytest.raises(ConfigurationError):
                ctl.reset(out_of_range)

    def test_projected_delay_is_the_mm1_projection(self):
        ctl = controller(per_server_rate=70.0)  # service rate 100 req/s
        assert ctl.projected_delay(100.0, 2) == pytest.approx(1 / 50)
        assert ctl.projected_delay(100.0, 4) < ctl.projected_delay(100.0, 2)
        assert ctl.projected_delay(1000.0, 2) == float("inf")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            controller(num_servers=0)
        with pytest.raises(ConfigurationError):
            controller(delay_reference=0.6, delay_bound=0.5)
        with pytest.raises(ConfigurationError):
            controller(min_servers=11)
        ctl = controller()
        with pytest.raises(ConfigurationError):
            ctl.update(-1.0, 100.0)
        with pytest.raises(ConfigurationError):
            ctl.update(0.1, -5.0)


class TestRunFeedbackLoop:
    def test_tracks_diurnal_workload(self):
        # Rates that rise and fall; the schedule should do the same.
        rates = [200, 400, 800, 1200, 1400, 1200, 800, 400, 200, 200]
        schedule = run_feedback_loop(
            rates, num_servers=10, per_server_rate=200.0, slot_seconds=10.0
        )
        assert schedule.num_slots == len(rates)
        peak_slot = rates.index(max(rates))
        assert schedule.counts[peak_slot] >= schedule.counts[0]
        assert max(schedule.counts) > min(schedule.counts)

    def test_initial_override(self):
        schedule = run_feedback_loop(
            [100, 100], num_servers=10, per_server_rate=200.0, initial=3,
            slot_seconds=10.0,
        )
        assert schedule.counts[0] <= 4  # started near 3, not at 10

    def test_all_counts_valid(self):
        schedule = run_feedback_loop(
            [50, 5000, 50], num_servers=6, per_server_rate=100.0,
            slot_seconds=10.0,
        )
        assert all(1 <= c <= 6 for c in schedule.counts)


# --------------------------------------------------------- health feedback


def health(**kwargs):
    from repro.provisioning.health import HealthSnapshot

    kwargs.setdefault("at", 0.0)
    return HealthSnapshot(**kwargs)


class TestHealthFeedback:
    def test_none_health_is_bit_identical(self, timeline):
        plain = controller(per_server_rate=200.0)
        closed = controller(per_server_rate=200.0)
        idle = health()
        plain_counts, closed_counts = [], []
        for delay, rate in [(0.05, 100), (0.45, 900), (0.9, 1500),
                            (0.2, 800), (0.05, 200), (0.05, 100)]:
            plain_counts.append(plain.update(delay, rate))
            closed_counts.append(closed.update(delay, rate, health=idle))
        assert plain_counts == closed_counts
        assert decisions(timeline) == []

    def test_no_health_emits_nothing(self, timeline):
        # The inputs that force capacity and veto descent with a snapshot
        # decide on delay alone without one, and record nothing.
        ctl = controller(per_server_rate=200.0)
        ctl.reset(3)
        assert ctl.update(0.1, arrival_rate=500.0) == 3
        ctl.reset(5)
        assert ctl.update(0.05, arrival_rate=100.0) == 4
        assert decisions(timeline) == []

    def test_open_breaker_triggers_emergency_scale_up(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(3)
        # 3 active, one tripped: 2 healthy left for a 3-server load, but
        # the measured delay still looks fine (degraded path is fast).
        new = ctl.update(
            0.1, arrival_rate=500.0,
            health=health(unhealthy_servers=frozenset({1})),
        )
        assert new == 4  # required ceil(500/180)=3 healthy + 1 lost
        assert decisions(timeline) == [emergency(3, 4, "lost")]

    def test_crashed_server_counts_like_open_breaker(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(3)
        new = ctl.update(
            0.1, arrival_rate=500.0,
            health=health(unhealthy_servers=frozenset({0})),
        )
        assert new == 4
        assert decisions(timeline) == [emergency(3, 4, "lost")]

    def test_emergency_cannot_run_away(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(6)
        # 5 healthy already cover the load: no forced growth, slot after slot.
        snap = health(unhealthy_servers=frozenset({1}))
        for _ in range(5):
            new = ctl.update(0.1, arrival_rate=500.0, health=snap)
        assert new == 6
        assert timeline.of("controller.emergency") == []
        # the wanted scale-down waits for the tripped breaker, every slot
        assert decisions(timeline) == [veto(6, 5, "unhealthy")] * 5

    def test_unhealthy_outside_active_set_ignored_for_loss(self):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(3)
        # server 7 is powered off anyway: no capacity was lost.
        new = ctl.update(
            0.1, arrival_rate=500.0,
            health=health(unhealthy_servers=frozenset({7})),
        )
        assert new == 3

    def test_degraded_rate_without_culprit_adds_one(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(4)
        snap = health(at=30.0, requests=1000, degraded={"timeouts": 100})
        assert ctl.update(0.1, arrival_rate=600.0, health=snap) == 5
        assert decisions(timeline) == [emergency(4, 5, "degraded")]
        assert [event.t for event in timeline.events] == [30.0]

    def test_scale_down_vetoed_while_unhealthy(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(5)
        snap = health(unhealthy_servers=frozenset({9}))
        # delay-only would drop a server (light load, low delay).
        assert ctl.update(0.05, arrival_rate=100.0, health=snap) == 5
        assert decisions(timeline) == [veto(5, 4, "unhealthy")]

    def test_scale_down_vetoed_while_in_transition(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(5)
        snap = health(in_transition=True)
        assert ctl.update(0.05, arrival_rate=100.0, health=snap) == 5
        assert decisions(timeline) == [veto(5, 4, "transition")]

    def test_scale_down_vetoed_while_remap_decay_active(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(5)
        snap = health(requests=100, remap_misses=20)
        assert ctl.update(0.05, arrival_rate=100.0, health=snap) == 5
        assert decisions(timeline) == [veto(5, 4, "remap")]

    def test_straggler_remap_misses_do_not_veto(self, timeline):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(5)
        # 2 misses over 1000 requests: below the 5% veto threshold.
        snap = health(requests=1000, remap_misses=2)
        assert ctl.update(0.05, arrival_rate=100.0, health=snap) == 4
        assert timeline.of("controller.veto") == []

    def test_the_first_reason_that_holds_is_named(self, timeline):
        # degraded before shed; unhealthy, transition, remap, shed
        ctl = controller(per_server_rate=200.0)
        ctl.reset(4)
        both = health(requests=100, degraded={"timeouts": 10}, shed=10)
        assert ctl.update(0.1, arrival_rate=100.0, health=both) == 5
        full = controller(num_servers=4)
        impaired = health(in_transition=True, requests=100,
                          remap_misses=20, shed=10)
        assert full.update(0.1, arrival_rate=100.0, health=impaired) == 4
        assert decisions(timeline) == [
            emergency(4, 5, "degraded"), veto(4, 3, "transition"),
        ]

    def test_healthy_snapshot_permits_scale_down(self):
        ctl = controller(per_server_rate=200.0)
        ctl.reset(5)
        assert ctl.update(0.05, arrival_rate=100.0, health=health()) == 4


class TestShedFeedback:
    """Sustained admission shedding closes the loop: the delay signal
    under-reports a flash crowd (shed requests never post a latency
    sample), so the shed rate must drive scale-up and veto descent."""

    def health(self, requests=100, shed=0):
        from repro.provisioning.health import HealthSnapshot

        return HealthSnapshot(at=0.0, requests=requests, shed=shed)

    def test_shedding_forces_an_emergency_scale_up(self, timeline):
        ctl = controller(num_servers=4)
        ctl.reset(2)
        # Delay looks calm (hits keep the median low), but 10% of offered
        # load was refused: add a server anyway.
        new = ctl.update(0.1, arrival_rate=100, health=self.health(shed=10))
        assert new == 3
        assert decisions(timeline) == [emergency(2, 3, "shed")]

    def test_shedding_vetoes_scale_down(self, timeline):
        ctl = controller(num_servers=4)  # starts at the full fleet
        new = ctl.update(0.1, arrival_rate=100, health=self.health(shed=10))
        assert new == 4  # wanted 3, vetoed
        assert decisions(timeline) == [veto(4, 3, "shed")]

    def test_shed_below_threshold_changes_nothing(self, timeline):
        ctl = controller(num_servers=4)
        quiet = self.health(requests=1000, shed=10)  # 1% < 2% threshold
        new = ctl.update(0.1, arrival_rate=100, health=quiet)
        assert new == 3  # the ordinary scale-down proceeds
        assert decisions(timeline) == []
