"""Tests for the Table II routing scenarios."""

import collections
import random

import pytest

from repro.core.router import (
    ROUTER_SCENARIOS,
    ConsistentRouter,
    NaiveRouter,
    ProteusRouter,
    StaticRouter,
    make_router,
)
from repro.errors import ConfigurationError, RoutingError
from tests.conftest import make_keys


def load_counts(router, keys, num_active):
    counts = collections.Counter(router.route(k, num_active) for k in keys)
    return counts


class TestStaticRouter:
    def test_uses_all_servers_regardless_of_active(self):
        router = StaticRouter(8)
        keys = make_keys(4000)
        assert set(load_counts(router, keys, 1)) == set(range(8))

    def test_balanced(self):
        counts = load_counts(StaticRouter(4), make_keys(8000), 4)
        assert min(counts.values()) / max(counts.values()) > 0.9

    def test_deterministic(self):
        router = StaticRouter(5)
        assert router.route("k", 5) == router.route("k", 5)

    def test_name(self):
        assert StaticRouter(2).name == "Static"


class TestNaiveRouter:
    def test_routes_within_active(self):
        router = NaiveRouter(10)
        for key in make_keys(200):
            assert router.route(key, 3) < 3

    def test_balanced_within_slot(self):
        counts = load_counts(NaiveRouter(10), make_keys(9000), 6)
        assert min(counts.values()) / max(counts.values()) > 0.9

    def test_massive_remap_on_resize(self):
        # The Reddit incident: n -> n+1 remaps ~n/(n+1) of keys.
        router = NaiveRouter(10)
        keys = make_keys(5000)
        moved = sum(1 for k in keys if router.route(k, 9) != router.route(k, 10))
        assert moved / len(keys) > 0.85

    def test_rejects_bad_active_count(self):
        router = NaiveRouter(4)
        with pytest.raises(RoutingError):
            router.route("k", 0)
        with pytest.raises(RoutingError):
            router.route("k", 5)


class TestConsistentRouter:
    def test_log_variant_vnode_count(self):
        router = ConsistentRouter.log_variant(8)
        assert len(router.ring) == 8 * 3  # ceil(log2(8)) = 3

    def test_quadratic_variant_vnode_count(self):
        router = ConsistentRouter.quadratic_variant(10)
        assert len(router.ring) == 50  # 10^2/2

    def test_same_seed_same_routing(self):
        a = ConsistentRouter.quadratic_variant(6, seed=0)
        b = ConsistentRouter.quadratic_variant(6, seed=0)
        keys = make_keys(300)
        assert [a.route(k, 4) for k in keys] == [b.route(k, 4) for k in keys]

    def test_different_seed_different_placement(self):
        a = ConsistentRouter.quadratic_variant(6, seed=0)
        b = ConsistentRouter.quadratic_variant(6, seed=1)
        keys = make_keys(300)
        assert [a.route(k, 4) for k in keys] != [b.route(k, 4) for k in keys]

    def test_small_remap_on_resize(self):
        router = ConsistentRouter.quadratic_variant(10)
        keys = make_keys(5000)
        moved = sum(1 for k in keys if router.route(k, 9) != router.route(k, 10))
        # Consistent hashing moves far less than naive's ~90%.
        assert moved / len(keys) < 0.35

    def test_worse_balance_than_proteus(self):
        keys = make_keys(20000)
        consistent = load_counts(ConsistentRouter.log_variant(8), keys, 8)
        proteus = load_counts(ProteusRouter(8), keys, 8)

        def ratio(counts):
            values = [counts.get(s, 0) for s in range(8)]
            return min(values) / max(values)

        assert ratio(proteus) > ratio(consistent)

    def test_rejects_too_few_total_vnodes(self):
        with pytest.raises(ConfigurationError):
            ConsistentRouter(4, total_vnodes=3)

    def test_name(self):
        assert ConsistentRouter.log_variant(4).name == "Consistent"


class TestProteusRouter:
    def test_routes_within_active(self):
        router = ProteusRouter(10)
        for key in make_keys(300):
            for n in (1, 4, 10):
                assert router.route(key, n) < n

    def test_near_perfect_balance_at_every_prefix(self):
        router = ProteusRouter(8)
        keys = make_keys(40_000)
        for n in (2, 5, 8):
            counts = load_counts(router, keys, n)
            values = [counts.get(s, 0) for s in range(n)]
            assert min(values) / max(values) > 0.9

    def test_migration_only_touches_resized_server(self):
        router = ProteusRouter(10)
        keys = make_keys(4000)
        for key in keys:
            before = router.route(key, 9)
            after = router.route(key, 10)
            # Keys either stay or move to the newly powered-on server 9.
            assert after == before or after == 9

    def test_scale_down_spreads_to_all_remaining(self):
        router = ProteusRouter(6)
        keys = make_keys(30_000)
        gained = collections.Counter()
        for key in keys:
            before = router.route(key, 6)
            after = router.route(key, 5)
            if before != after:
                assert before == 5  # only the removed server loses keys
                gained[after] += 1
        # Balance condition: the drained load spreads over all 5 survivors.
        assert set(gained) == set(range(5))
        assert min(gained.values()) / max(gained.values()) > 0.8


class TestFactory:
    def test_make_router_all_scenarios(self):
        assert isinstance(make_router("static", 4), StaticRouter)
        assert isinstance(make_router("naive", 4), NaiveRouter)
        assert isinstance(make_router("consistent", 4), ConsistentRouter)
        assert isinstance(make_router("proteus", 4), ProteusRouter)

    def test_make_router_consistent_variants(self):
        log = make_router("consistent", 8, variant="log")
        quad = make_router("consistent", 8, variant="quadratic")
        assert len(quad.ring) > len(log.ring)

    def test_make_router_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            make_router("mystery", 4)
        with pytest.raises(ConfigurationError):
            make_router("consistent", 4, variant="cubic")

    def test_scenarios_keep_the_table_order(self):
        # the order CLI choices and the unknown-name error list them in
        assert list(ROUTER_SCENARIOS) == [
            "static", "naive", "consistent", "proteus",
        ]

    def test_lookup_is_case_insensitive(self):
        assert isinstance(make_router(" Proteus ", 4), ProteusRouter)
        assert isinstance(make_router("NAIVE", 4), NaiveRouter)

    def test_unknown_name_error_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as err:
            make_router("zeta", 4)
        assert str(err.value) == (
            "unknown scenario 'zeta' "
            "(expected one of static, naive, consistent, proteus)"
        )

    def test_check_rejects_non_strings(self):
        # a non-string (``null`` in a JSON file) gets the same one error
        for name in (None, 3):
            with pytest.raises(ConfigurationError) as err:
                make_router(name, 4)
            assert str(err.value) == (
                f"unknown scenario {name!r} "
                "(expected one of static, naive, consistent, proteus)"
            )

    def test_unified_error_message_everywhere(self, capsys):
        # every CLI --scenario option offers the names make_router lists,
        # in the same order
        from repro.cli import main

        commands = [
            ["route", "k", "--servers", "4", "--active", "2"],
            ["loadbalance", "--trace", "t", "--servers", "4",
             "--schedule", "2", "--slot-seconds", "1"],
        ]
        for command in commands:
            with pytest.raises(SystemExit):
                main(command + ["--scenario", "zeta"])
            err = capsys.readouterr().err
            listed = err[err.index("zeta"):]
            at = [listed.index(name) for name in ROUTER_SCENARIOS]
            assert at == sorted(at)
