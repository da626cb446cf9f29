"""Circuit breaker: closed/open/half-open transitions, all clock-driven."""

from repro.resilience import BreakerState, CircuitBreaker, ResiliencePolicy
from repro.resilience import breaker as breaker_module
from repro.resilience.faults import FaultPlan, FaultSchedule


def make(threshold=3, reset=1.0):
    return CircuitBreaker(failure_threshold=threshold, reset_timeout=reset)


class TestTripCycle:
    def test_stays_closed_below_the_threshold(self):
        breaker = make(threshold=3)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.1)
        assert breaker.state(0.2) is BreakerState.CLOSED
        assert breaker.allow(0.2)

    def test_success_resets_the_consecutive_count(self):
        breaker = make(threshold=3)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.1)
        breaker.record_success(now=0.2)
        breaker.record_failure(now=0.3)
        breaker.record_failure(now=0.4)
        assert breaker.state(0.5) is BreakerState.CLOSED

    def test_threshold_opens_and_refuses(self):
        breaker = make(threshold=2, reset=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.1)
        assert breaker.state(0.2) is BreakerState.OPEN
        assert not breaker.allow(0.2)
        assert breaker.trips == 1

    def test_reset_timeout_admits_half_open_probes(self):
        breaker = make(threshold=1, reset=1.0)
        breaker.record_failure(now=0.0)
        assert not breaker.allow(0.5)
        assert breaker.state(1.0) is BreakerState.HALF_OPEN
        assert breaker.allow(1.0)       # the probe
        assert not breaker.allow(1.0)   # only one probe per window

    def test_probe_success_closes(self):
        breaker = make(threshold=1, reset=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(1.5)
        breaker.record_success(now=1.6)
        assert breaker.state(1.6) is BreakerState.CLOSED
        assert breaker.allow(1.6)

    def test_probe_failure_reopens_for_another_window(self):
        breaker = make(threshold=1, reset=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(1.5)
        breaker.record_failure(now=1.5)
        assert breaker.state(1.6) is BreakerState.OPEN
        assert not breaker.allow(2.0)
        assert breaker.state(2.5) is BreakerState.HALF_OPEN
        assert breaker.trips == 2

    def test_multiple_probes_window(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "HALF_OPEN_PROBES", 2)
        breaker = make(threshold=1, reset=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(1.1)
        assert breaker.allow(1.1)
        assert not breaker.allow(1.1)


class TestPolicyFactories:
    def test_policy_builds_breakers_and_deadlines(self):
        policy = ResiliencePolicy.aggressive(op_timeout=0.25)
        breaker = policy.new_breaker()
        assert breaker.failure_threshold == policy.breaker_failures
        assert breaker.reset_timeout == policy.breaker_reset
        deadline = policy.new_deadline()
        assert deadline.budget == policy.request_budget
        assert policy.op_timeout == 0.25

    def test_default_policy_is_benign_but_retries(self):
        policy = ResiliencePolicy.default()
        assert policy.retry.max_attempts >= 2
        assert policy.op_timeout is None


class TestFaultScheduleVocabulary:
    def test_plans_at_respects_windows_and_ordering(self):
        schedule = FaultSchedule()
        schedule.add(1.0, 0, FaultPlan.killed(), clear_at=3.0)
        schedule.add(2.0, 0, FaultPlan.slow(0.05))
        schedule.add(2.0, 1, FaultPlan.flaky(0.1))
        assert schedule.plans_at(0.5) == {}
        assert schedule.plans_at(1.5) == {0: FaultPlan.killed()}
        plans = schedule.plans_at(2.5)
        # later entry wins for server 0
        assert plans[0] == FaultPlan.slow(0.05)
        assert plans[1] == FaultPlan.flaky(0.1)
        assert schedule.plans_at(3.5)[0] == FaultPlan.slow(0.05)
        assert schedule.servers() == [0, 1]

    def test_kills_server_only_for_unreachable_plans(self):
        assert FaultPlan.killed().kills_server
        assert FaultPlan(blackhole=True).kills_server
        assert not FaultPlan.slow(0.1).kills_server
        assert not FaultPlan.flaky(0.3).kills_server
        assert FaultPlan.none() == FaultPlan()

    def test_syn_dropped_plan_counts_as_killing(self):
        assert FaultPlan.syn_dropped().kills_server
        assert FaultPlan.syn_dropped() != FaultPlan()

    def test_crashes_are_the_entries_whose_plan_kills_the_server(self):
        schedule = (
            FaultSchedule()
            .add(3.0, 2, FaultPlan.syn_dropped(), clear_at=4.0)
            .add(1.0, 0, FaultPlan.killed())
            .add(2.0, 1, FaultPlan.slow(0.05))
        )
        assert [(f.at, f.server_id, f.clear_at) for f in schedule.crashes()] == [
            (1.0, 0, None), (3.0, 2, 4.0),
        ]
        assert FaultSchedule().crashes() == []
