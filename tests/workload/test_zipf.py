"""Tests for the Zipf sampler."""

import collections

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.zipf import ZipfSampler


def popularity(sampler, rank):
    """Probability mass of the item at *rank* (0 = most popular)."""
    return float(np.diff(sampler._cdf, prepend=0.0)[rank])


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(100, alpha=1.0, seed=0)
        for _ in range(200):
            assert 0 <= sampler.sample() < 100

    def test_sample_many_matches_range(self):
        sampler = ZipfSampler(50, seed=1)
        items = sampler.sample_many(5000)
        assert items.min() >= 0 and items.max() < 50

    def test_skew_head_dominates(self):
        sampler = ZipfSampler(10_000, alpha=1.0, seed=2)
        draws = sampler.sample_many(50_000)
        head_fraction = np.mean(np.isin(draws, sampler._perm[:100]))  # top-100 ranks
        assert head_fraction > 0.4

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, alpha=0.0, seed=3)
        counts = collections.Counter(sampler.sample_many(20_000).tolist())
        values = [counts[i] for i in range(10)]
        assert min(values) / max(values) > 0.85

    def test_popularity_sums_to_one(self):
        sampler = ZipfSampler(200, alpha=0.9)
        total = sum(popularity(sampler, r) for r in range(200))
        assert total == pytest.approx(1.0)

    def test_popularity_is_decreasing_in_rank(self):
        sampler = ZipfSampler(100, alpha=0.9)
        probs = [popularity(sampler, r) for r in range(10)]
        assert probs == sorted(probs, reverse=True)

    def test_shuffle_decorrelates_rank_and_id(self):
        sampler = ZipfSampler(1000, alpha=1.0, seed=4)
        top = sampler._perm[:10].tolist()  # the ten most popular ids
        assert top != list(range(10))  # overwhelmingly unlikely if shuffled

    def test_deterministic_per_seed(self):
        a = ZipfSampler(100, seed=7).sample_many(100)
        b = ZipfSampler(100, seed=7).sample_many(100)
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, alpha=-1)
        sampler = ZipfSampler(10)
        with pytest.raises(ConfigurationError):
            sampler.sample_many(-1)
