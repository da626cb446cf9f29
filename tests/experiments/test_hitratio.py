"""Tests for the Fig. 6 hit-ratio harness."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.hitratio import simulate_hit_ratio, sweep_cache_sizes
from repro.workload.wikipedia import generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        duration=120.0, mean_rate=500.0, num_pages=3000, alpha=0.9, seed=21
    )


class TestSimulateHitRatio:
    def test_unbounded_cache_hits_everything_after_first_touch(self, trace):
        huge = simulate_hit_ratio(trace, capacity_bytes=4096 * 100_000)
        distinct = huge.distinct_keys
        # Upper bound: every request except each key's first touch can hit.
        assert huge.hit_ratio <= 1.0
        assert huge.hit_ratio > 0.8
        assert huge.evictions == 0
        assert distinct <= 3000

    def test_monotone_in_capacity(self, trace):
        points = sweep_cache_sizes(
            trace, [4096 * 50, 4096 * 200, 4096 * 1000, 4096 * 3000]
        )
        ratios = [p.hit_ratio for p in points]
        assert all(a <= b + 0.02 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] - ratios[0] > 0.2  # the sweep actually moves

    def test_tiny_cache_evicts(self, trace):
        point = simulate_hit_ratio(trace, capacity_bytes=4096 * 10)
        assert point.evictions > 0
        assert point.hit_ratio < 0.6

    def test_warmup_exclusion(self, trace):
        with_warmup = simulate_hit_ratio(
            trace, 4096 * 500, warmup_fraction=0.3
        )
        without = simulate_hit_ratio(trace, 4096 * 500, warmup_fraction=0.0)
        # Excluding the cold start can only help (or tie).
        assert with_warmup.hit_ratio >= without.hit_ratio - 0.01

    def test_validation(self, trace):
        with pytest.raises(ConfigurationError):
            simulate_hit_ratio([], 4096)
        with pytest.raises(ConfigurationError):
            simulate_hit_ratio(trace, 4096, warmup_fraction=1.0)
