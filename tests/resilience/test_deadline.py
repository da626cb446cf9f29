"""Deadline budgets: clock-injected, deterministic expiry."""

import pytest

from repro.resilience import Deadline


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestDeadline:
    def test_counts_down_against_the_injected_clock(self):
        clock = FakeClock(10.0)
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == 2.0
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_expires_exactly_at_the_boundary(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        assert deadline.expired()

    def test_allows_is_the_pre_sleep_check(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.allows(0.5)
        assert deadline.allows(1.0)
        assert not deadline.allows(1.5)
        clock.advance(0.8)
        assert not deadline.allows(0.5)

    def test_unlimited_budget_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.advance(1e9)
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        assert deadline.allows(1e12)

    def test_explicit_now_overrides_the_clock(self):
        clock = FakeClock(5.0)
        deadline = Deadline(1.0, clock=clock)
        assert deadline.expired(now=7.0)
        assert not deadline.expired(now=5.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0, clock=FakeClock())
