"""Tests for the closed-loop synthetic user model (RBE)."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.synthetic import (
    DEFAULT_PAGES_PER_USER,
    DEFAULT_THINK_TIME,
    SyntheticUser,
    UserPopulation,
)


class TestPaperDefaults:
    def test_paper_parameters(self):
        # Section V-A1: think time 0.5 s; Section VI-C: 50-page sets.
        assert DEFAULT_THINK_TIME == 0.5
        assert DEFAULT_PAGES_PER_USER == 50


class TestSyntheticUser:
    def test_requests_from_personal_set(self):
        user = SyntheticUser(0, pages=["a", "b", "c"], seed=1)
        for _ in range(50):
            assert user.next_key() in ("a", "b", "c")

    def test_think_time(self):
        assert SyntheticUser(0, ["a"], think_time=0.25).next_think() == 0.25

    def test_deterministic_sequence(self):
        a = SyntheticUser(5, ["x", "y", "z"], seed=2)
        b = SyntheticUser(5, ["x", "y", "z"], seed=2)
        assert [a.next_key() for _ in range(20)] == [b.next_key() for _ in range(20)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticUser(0, [])
        with pytest.raises(ConfigurationError):
            SyntheticUser(0, ["a"], think_time=-1.0)


class TestUserPopulation:
    def test_spawn_draws_personal_sets(self):
        pop = UserPopulation(1000, pages_per_user=10, seed=1)
        user = pop.spawn()
        assert len(user.pages) == 10
        assert all(p.startswith("page:") for p in user.pages)
        assert len(pop) == 1

    def test_distinct_users_distinct_ids_and_sets(self):
        pop = UserPopulation(10_000, pages_per_user=50, seed=2)
        a, b = pop.spawn(), pop.spawn()
        assert a.user_id != b.user_id
        assert a.pages != b.pages  # independent random selections

    def test_personal_sets_biased_to_popular_pages(self):
        pop = UserPopulation(100_000, pages_per_user=50, alpha=1.1, seed=3)
        import collections

        counts = collections.Counter()
        for _ in range(100):
            counts.update(pop.spawn().pages)
        # Some pages appear in many personal sets (popularity skew).
        assert counts.most_common(1)[0][1] >= 5

    def test_resize_up_and_down(self):
        pop = UserPopulation(1000, seed=4)
        delta = pop.resize_to(5)
        assert len(delta.spawned) == 5 and len(pop) == 5
        delta = pop.resize_to(2)
        assert len(delta.retired) == 3 and len(pop) == 2

    def test_resize_retires_oldest_first(self):
        pop = UserPopulation(1000, seed=5)
        pop.resize_to(3)
        first = pop.active[0]
        delta = pop.resize_to(2)
        assert delta.retired == [first]

    def test_resize_noop(self):
        pop = UserPopulation(1000, seed=6)
        pop.resize_to(3)
        delta = pop.resize_to(3)
        assert not delta.spawned and not delta.retired

    def test_retire_empty_returns_none(self):
        assert UserPopulation(10).retire() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UserPopulation(0)
        with pytest.raises(ConfigurationError):
            UserPopulation(10, pages_per_user=0)
        with pytest.raises(ConfigurationError):
            UserPopulation(10).resize_to(-1)
