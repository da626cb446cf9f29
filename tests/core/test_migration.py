"""Tests for migration analysis (the Section II minimality objective)."""

from fractions import Fraction

import pytest

from repro.core.migration import (
    empirical_remap_fraction,
    migration_lower_bound,
    naive_remap_fraction,
)
from repro.core.router import NaiveRouter, ProteusRouter
from repro.errors import ConfigurationError


class TestLowerBound:
    def test_formula(self):
        assert migration_lower_bound(10, 9) == Fraction(1, 10)
        assert migration_lower_bound(9, 10) == Fraction(1, 10)
        assert migration_lower_bound(4, 4) == 0
        assert migration_lower_bound(2, 6) == Fraction(4, 6)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            migration_lower_bound(0, 1)


class TestNaiveRemapFraction:
    def test_adjacent_sizes(self):
        # n -> n+1 keeps ~1/(n+1): remap = n/(n+1) for coprime neighbours.
        assert naive_remap_fraction(9, 10) == Fraction(9, 10)
        assert naive_remap_fraction(10, 9) == Fraction(9, 10)

    def test_no_change_no_remap(self):
        assert naive_remap_fraction(5, 5) == 0

    def test_multiples_share_residues(self):
        # 2 -> 4: keys with hash % 4 < 2 keep their server: half survive.
        assert naive_remap_fraction(2, 4) == Fraction(1, 2)

    def test_matches_measurement(self):
        router = NaiveRouter(12)
        predicted = float(naive_remap_fraction(7, 8))
        measured = empirical_remap_fraction(router, 7, 8, num_samples=8000)
        assert measured == pytest.approx(predicted, abs=0.02)


class TestProteusMeetsBound:
    @pytest.mark.parametrize("n_old,n_new", [(10, 9), (9, 10), (5, 4), (2, 3)])
    def test_single_step_transitions(self, n_old, n_new):
        router = ProteusRouter(10)
        bound = float(migration_lower_bound(n_old, n_new))
        measured = empirical_remap_fraction(router, n_old, n_new, num_samples=8000)
        assert measured == pytest.approx(bound, abs=0.02)

    def test_multi_step_transition(self):
        router = ProteusRouter(10)
        bound = float(migration_lower_bound(10, 6))  # 0.4
        measured = empirical_remap_fraction(router, 10, 6, num_samples=8000)
        assert measured == pytest.approx(bound, abs=0.02)

    def test_naive_is_far_above_bound(self):
        router = NaiveRouter(10)
        bound = float(migration_lower_bound(10, 9))
        measured = empirical_remap_fraction(router, 10, 9, num_samples=4000)
        assert measured > 5 * bound
