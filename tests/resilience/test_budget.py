"""RetryBudget and AdaptiveConcurrencyLimiter: deterministic clock tests."""

import pytest

from repro.resilience import AdaptiveConcurrencyLimiter, RetryBudget
from repro.resilience import budget as budget_module

ZERO = lambda: 0.0  # noqa: E731 - constructor clock; tests pass explicit now


class TestRetryBudgetValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(ratio=1.5)
        with pytest.raises(ValueError):
            RetryBudget(min_retries_per_second=-1.0)
        with pytest.raises(ValueError):
            RetryBudget(halflife=0.0)


class TestRetryBudgetTokens:
    def test_retries_capped_at_ratio_of_requests(self):
        budget = RetryBudget(
            ratio=0.5, min_retries_per_second=0.0, clock=ZERO
        )
        budget.record_request(n=10, now=0.0)
        grants = [budget.allow_retry(now=0.0) for _ in range(6)]
        # 10 requests x 0.5 tokens = 5 retries; the 6th is refused.
        assert grants == [True] * 5 + [False]
        assert budget.granted == 5
        assert budget.denied == 1
        assert budget.requests == 10

    def test_denial_is_final_without_new_deposits(self):
        budget = RetryBudget(ratio=0.2, min_retries_per_second=0.0, clock=ZERO)
        budget.record_request(now=0.0)  # 0.2 tokens: below one retry
        assert not budget.allow_retry(now=0.0)
        assert not budget.allow_retry(now=0.0)
        # more first attempts re-fund the bucket
        budget.record_request(n=4, now=0.0)
        assert budget.allow_retry(now=0.0)

    def test_balance_decays_with_halflife(self):
        budget = RetryBudget(
            ratio=1.0, min_retries_per_second=0.0, halflife=10.0, clock=ZERO
        )
        budget.record_request(n=8, now=0.0)
        assert budget.balance(now=0.0) == pytest.approx(8.0)
        # one half-life later, half the recent volume is forgotten
        assert budget.balance(now=10.0) == pytest.approx(4.0)
        assert budget.balance(now=30.0) == pytest.approx(1.0)

    def test_burst_caps_banked_tokens(self, monkeypatch):
        monkeypatch.setattr(budget_module, "BURST", 5.0)
        budget = RetryBudget(ratio=1.0, min_retries_per_second=0.0, clock=ZERO)
        budget.record_request(n=1000, now=0.0)
        assert budget.balance(now=0.0) == pytest.approx(5.0)

    def test_trickle_reserve_for_low_volume_clients(self):
        budget = RetryBudget(ratio=0.2, min_retries_per_second=1.0, clock=ZERO)
        budget.record_request(now=5.0)  # 0.2 tokens; reserve accrued to cap
        # The reserve is capped at one retry, however long the quiet spell.
        assert budget.allow_retry(now=100.0)
        assert not budget.allow_retry(now=100.0)

    def test_zero_reserve_starves_without_volume(self):
        budget = RetryBudget(ratio=0.2, min_retries_per_second=0.0, clock=ZERO)
        assert not budget.allow_retry(now=1000.0)
        assert budget.denied == 1


class TestLimiterValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(initial=0.5)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(initial=4.0, max_limit=2.0)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(initial=2048.0)


class TestLimiterAdmission:
    def test_window_bounds_inflight(self):
        limiter = AdaptiveConcurrencyLimiter(initial=2.0, clock=ZERO)
        assert limiter.try_acquire(now=0.0)
        assert limiter.try_acquire(now=0.0)
        assert not limiter.try_acquire(now=0.0)
        assert limiter.shed == 1
        assert limiter.peak_inflight == 2
        limiter.release()
        assert limiter.try_acquire(now=0.0)

    def test_release_clamps_at_zero(self):
        limiter = AdaptiveConcurrencyLimiter(initial=2.0, clock=ZERO)
        limiter.release()  # spurious: must not go negative
        assert limiter.inflight == 0
        assert limiter.try_acquire(now=0.0)
        assert limiter.inflight == 1

    def test_integral_window_is_at_least_one(self):
        limiter = AdaptiveConcurrencyLimiter(initial=1.0, clock=ZERO)
        for _ in range(10):
            limiter.on_overload(now=limiter.cuts * 10.0)
        assert limiter.limit == 1.0
        assert limiter.window == 1
        assert limiter.try_acquire(now=0.0)


class TestLimiterAIMD:
    def test_one_window_of_successes_grows_limit_by_about_one(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0, clock=ZERO)
        for _ in range(8):
            limiter.on_success(now=0.0)
        assert 8.9 <= limiter.limit <= 9.1

    def test_growth_clamped_at_max_limit(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial=4.0, max_limit=4.5, clock=ZERO
        )
        for _ in range(100):
            limiter.on_success(now=0.0)
        assert limiter.limit == 4.5

    def test_overload_cuts_multiplicatively(self):
        limiter = AdaptiveConcurrencyLimiter(initial=16.0, clock=ZERO)
        limiter.on_overload(now=0.0)
        assert limiter.limit == pytest.approx(8.0)
        assert limiter.cuts == 1

    def test_cooldown_absorbs_echoes_of_one_congestion_event(self, monkeypatch):
        monkeypatch.setattr(budget_module, "COOLDOWN", 1.0)
        limiter = AdaptiveConcurrencyLimiter(initial=16.0, clock=ZERO)
        limiter.on_overload(now=0.0)
        # All the timeouts of one stalled window arrive together: one cut.
        limiter.on_overload(now=0.2)
        limiter.on_overload(now=0.9)
        assert limiter.limit == pytest.approx(8.0)
        assert limiter.cuts == 1
        limiter.on_overload(now=2.0)  # a new event, after the cooldown
        assert limiter.limit == pytest.approx(4.0)
        assert limiter.cuts == 2

    def test_cuts_bottom_out_at_min_limit(self, monkeypatch):
        monkeypatch.setattr(budget_module, "MIN_LIMIT", 2.0)
        limiter = AdaptiveConcurrencyLimiter(initial=16.0, clock=ZERO)
        for i in range(20):
            limiter.on_overload(now=float(i))
        assert limiter.limit == 2.0
