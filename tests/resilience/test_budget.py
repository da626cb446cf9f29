"""RetryBudget, the overload bench's client model: deterministic clock
tests."""

import pytest

from benchmarks import bench_overload
from benchmarks.bench_overload import RetryBudget


def balance(budget, now):
    """The budget's decayed token balance at *now*."""
    budget._advance(now)
    return budget._balance


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
        budget = RetryBudget(ratio=0.5, min_retries_per_second=0.0)
        budget.record_request(n=10, now=0.0)
        grants = [budget.allow_retry(now=0.0) for _ in range(6)]
        # 10 requests x 0.5 tokens = 5 retries; the 6th is refused.
        assert grants == [True] * 5 + [False]
        assert budget.granted == 5
        assert budget.denied == 1
        assert budget.requests == 10

    def test_denial_is_final_without_new_deposits(self):
        budget = RetryBudget(ratio=0.2, min_retries_per_second=0.0)
        budget.record_request(now=0.0)  # 0.2 tokens: below one retry
        assert not budget.allow_retry(now=0.0)
        assert not budget.allow_retry(now=0.0)
        # more first attempts re-fund the bucket
        budget.record_request(n=4, now=0.0)
        assert budget.allow_retry(now=0.0)

    def test_balance_decays_with_halflife(self):
        budget = RetryBudget(
            ratio=1.0, min_retries_per_second=0.0, halflife=10.0
        )
        budget.record_request(n=8, now=0.0)
        assert balance(budget, 0.0) == pytest.approx(8.0)
        # one half-life later, half the recent volume is forgotten
        assert balance(budget, 10.0) == pytest.approx(4.0)
        assert balance(budget, 30.0) == pytest.approx(1.0)

    def test_burst_caps_banked_tokens(self, monkeypatch):
        monkeypatch.setattr(bench_overload, "RETRY_BURST", 5.0)
        budget = RetryBudget(ratio=1.0, min_retries_per_second=0.0)
        budget.record_request(n=1000, now=0.0)
        assert balance(budget, 0.0) == pytest.approx(5.0)

    def test_trickle_reserve_for_low_volume_clients(self):
        budget = RetryBudget(ratio=0.2, min_retries_per_second=1.0)
        budget.record_request(now=5.0)  # 0.2 tokens; the clock starts here
        # The reserve is capped at one retry, however long the quiet spell.
        assert budget.allow_retry(now=100.0)
        assert not budget.allow_retry(now=100.0)

    def test_zero_reserve_starves_without_volume(self):
        budget = RetryBudget(ratio=0.2, min_retries_per_second=0.0)
        assert not budget.allow_retry(now=1000.0)
        assert budget.denied == 1

    def test_the_clock_starts_at_the_first_now(self):
        # Virtual time far below the host's uptime still decays the
        # balance: the budget keeps no clock of its own.
        budget = RetryBudget(ratio=1.0, min_retries_per_second=0.0)
        budget.record_request(n=10, now=0.0)
        assert balance(budget, budget.halflife) == pytest.approx(5.0)
