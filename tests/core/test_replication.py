"""Tests for Section III-E replication (Eq. 3)."""

import pytest

from repro.core.replication import (
    empirical_conflict_rate,
    no_conflict_probability,
)
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError
from tests.conftest import make_keys


def replicated(num_servers, replicas):
    return ProteusRouter(num_servers, replicas=replicas)


class TestEq3:
    def test_formula(self):
        # P_nc = prod (n - i)/n
        assert no_conflict_probability(1, 10) == 1.0
        assert no_conflict_probability(2, 10) == pytest.approx(0.9)
        assert no_conflict_probability(3, 10) == pytest.approx(0.9 * 0.8)

    def test_more_replicas_than_servers_gives_zero(self):
        assert no_conflict_probability(4, 3) == 0.0

    def test_large_n_approaches_one(self):
        assert no_conflict_probability(3, 1000) > 0.99

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            no_conflict_probability(0, 5)
        with pytest.raises(ConfigurationError):
            no_conflict_probability(2, 0)


class TestReplicatedRouter:
    def test_replica_count(self):
        router = replicated(8, replicas=3)
        owners = router.replica_servers("k", 8)
        assert len(owners) == 3
        assert all(0 <= s < 8 for s in owners)

    def test_route_is_primary_ring(self):
        router = replicated(8, replicas=3)
        assert router.route("k", 6) == router.replica_servers("k", 6)[0]
        # ...and ring 0 is the unreplicated router's only ring.
        assert router.route("k", 6) == ProteusRouter(8).route("k", 6)

    def test_replicas_respect_active_prefix(self):
        router = replicated(10, replicas=2)
        for key in make_keys(200):
            assert all(s < 4 for s in router.replica_servers(key, 4))

    def test_distinct_replicas_dedupes(self):
        router = replicated(2, replicas=3)
        keys = make_keys(50)
        for key, plan in zip(keys, router.read_plans(keys, 2)):
            assert len(plan) == len(set(plan)) <= 2
            assert set(plan) == set(router.replica_servers(key, 2))

    def test_empirical_conflict_matches_eq3(self):
        router = replicated(10, replicas=2)
        measured_nc = 1.0 - empirical_conflict_rate(router, 10, num_samples=6000)
        predicted = no_conflict_probability(2, 10)
        assert measured_nc == pytest.approx(predicted, abs=0.02)

    def test_read_targets_excludes_failed(self):
        # The plan never excludes anybody — routing is health-blind, the
        # engine moves past an unavailable owner — so the survivor of a
        # crashed primary is simply the plan's next entry.
        router = replicated(6, replicas=2)
        keys = make_keys(100)
        for key, plan in zip(keys, router.read_plans(keys, 6)):
            assert plan[0] == router.route(key, 6)
            assert list(plan[1:]) == [
                s for s in router.replica_servers(key, 6)[1:] if s != plan[0]
            ]

    def test_read_targets_all_failed_raises(self):
        # Nothing raises for a key whose owners all crashed: its plan is
        # what it always was, one owner per distinct replica.
        router = replicated(4, replicas=2)
        keys = make_keys(20)
        assert router.read_plans(keys, 4) == [
            plan for key in keys for plan in router.read_plans([key], 4)
        ]
        assert all(1 <= len(plan) <= 2 for plan in router.read_plans(keys, 4))

    def test_replicated_routing_is_balanced(self):
        import collections

        router = replicated(5, replicas=2)
        counts = collections.Counter()
        for key in make_keys(20_000):
            for server in router.replica_servers(key, 5):
                counts[server] += 1
        values = [counts[s] for s in range(5)]
        assert min(values) / max(values) > 0.9

    def test_rejects_bad_replicas(self):
        with pytest.raises(ConfigurationError):
            replicated(4, replicas=0)
