"""Drain-window sizing policies: estimator, clamps, registry."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.provisioning import ttl as ttl_module
from repro.provisioning.ttl import (
    TTL_POLICIES,
    AdaptiveTTLPolicy,
    FixedTTLPolicy,
    estimate_half_life,
    make_ttl_policy,
)


def geometric_series(half_life, interval=2.0, intervals=None, initial=1024.0):
    """Per-interval counts of an exact exponential decay, covering enough
    half-lives (~10) that window truncation cannot bias the estimate."""
    if intervals is None:
        intervals = max(4, math.ceil(10 * half_life / interval))
    decay = 0.5 ** (interval / half_life)
    samples = []
    count = initial
    for i in range(1, intervals + 1):
        samples.append((i * interval, count * (1 - decay)))
        count *= decay
    return samples


class TestEstimator:
    def test_recovers_known_half_life(self):
        for half_life in (3.0, 8.0, 20.0):
            estimate = estimate_half_life(geometric_series(half_life))
            assert estimate == pytest.approx(half_life, rel=0.15)

    def test_sparse_tail_of_zeros_still_estimates(self):
        # Late empty intervals are evidence of fast decay, not missing data.
        samples = [(2.0, 30.0), (4.0, 10.0), (6.0, 3.0), (8.0, 0.0),
                   (10.0, 0.0), (12.0, 0.0)]
        estimate = estimate_half_life(samples)
        assert estimate is not None
        assert estimate < 4.0

    def test_unusable_series_returns_none(self):
        assert estimate_half_life([]) is None
        assert estimate_half_life([(2.0, 5.0)]) is None
        assert estimate_half_life([(2.0, 0.0), (4.0, 0.0)]) is None
        assert estimate_half_life([(2.0, 5.0), (4.0, -1.0)]) is None

    def test_not_decaying_returns_none(self):
        flat = [(2.0, 10.0), (4.0, 10.0), (6.0, 10.0), (8.0, 10.0)]
        growing = [(2.0, 1.0), (4.0, 4.0), (6.0, 16.0)]
        assert estimate_half_life(flat) is None
        assert estimate_half_life(growing) is None

    def test_order_independent(self):
        samples = geometric_series(6.0)
        assert estimate_half_life(list(reversed(samples))) == (
            estimate_half_life(samples)
        )


class TestFixedPolicy:
    def test_constant_whatever_the_transition(self):
        policy = FixedTTLPolicy(ttl=42.0)
        assert policy.ttl_for() == 42.0
        assert policy.ttl_for(8, 3) == 42.0

    def test_observe_is_inert(self):
        policy = FixedTTLPolicy()
        assert policy.observe_decay(geometric_series(5.0)) is None
        assert policy.ttl_for() == policy.ttl

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ConfigurationError):
            FixedTTLPolicy(ttl=0.0)


class TestAdaptivePolicy:
    def test_default_until_first_observation(self):
        policy = AdaptiveTTLPolicy(default_ttl=60.0)
        assert policy.ttl_for() == 60.0

    def test_sizes_from_observed_decay(self, monkeypatch):
        monkeypatch.setattr(ttl_module, "MIN_TTL", 1.0)
        policy = AdaptiveTTLPolicy(max_ttl=1000.0)
        half_life = policy.observe_decay(geometric_series(8.0))
        assert half_life == pytest.approx(8.0, rel=0.15)
        expected = half_life * math.log2(1 / 0.05)
        assert policy.ttl_for() == pytest.approx(expected)

    def test_unusable_observation_keeps_default(self):
        policy = AdaptiveTTLPolicy(default_ttl=60.0)
        assert policy.observe_decay([(2.0, 0.0), (4.0, 0.0)]) is None
        assert policy.ttl_for() == 60.0

    def test_clamped_to_bounds(self, monkeypatch):
        monkeypatch.setattr(ttl_module, "MIN_TTL", 20.0)
        policy = AdaptiveTTLPolicy(max_ttl=90.0)
        policy.half_lives.append(0.1)
        assert policy.ttl_for() == 20.0
        policy.half_lives.extend([1e6, 1e6])
        assert policy.ttl_for() == 90.0

    def test_median_resists_one_anomaly(self, monkeypatch):
        monkeypatch.setattr(ttl_module, "MIN_TTL", 1.0)
        policy = AdaptiveTTLPolicy(max_ttl=10_000.0)
        policy.half_lives.extend([10.0] * 5)
        before = policy.ttl_for()
        policy.half_lives.append(5000.0)
        assert policy.ttl_for() == before

    def test_window_forgets_old_transitions(self, monkeypatch):
        monkeypatch.setattr(ttl_module, "DECAY_WINDOW", 2)
        monkeypatch.setattr(ttl_module, "MIN_TTL", 1.0)
        policy = AdaptiveTTLPolicy(max_ttl=10_000.0)
        policy.half_lives.extend([100.0, 10.0, 10.0])  # evicts the 100.0
        assert policy.ttl_for() == pytest.approx(
            10.0 * math.log2(1 / ttl_module.TARGET_RESIDUAL)
        )

    @pytest.mark.parametrize("kwargs", [
        {"max_ttl": 4.0},
        {"default_ttl": -1.0},
        {"default_ttl": 0.0},
    ])
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveTTLPolicy(**kwargs)


class TestRegistry:
    def test_both_policies_registered(self):
        assert set(TTL_POLICIES.names) >= {"fixed", "adaptive"}

    def test_make_by_name(self):
        assert isinstance(make_ttl_policy("fixed", ttl=10.0), FixedTTLPolicy)
        assert isinstance(make_ttl_policy("adaptive"), AdaptiveTTLPolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_ttl_policy("exponential-backoff")
