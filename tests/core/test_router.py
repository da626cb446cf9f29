"""Tests for the Table II routers and the scenario table that names them."""

import collections

import pytest

from repro.core.router import (
    ConsistentRouter,
    NaiveRouter,
    ProteusRouter,
    Router,
)
from repro.errors import ConfigurationError, RoutingError
from repro.experiments.testbed import SCENARIOS, scenario
from repro.provisioning.policies import ProvisioningSchedule
from tests.conftest import make_keys


def load_counts(router, keys, num_active):
    counts = collections.Counter(router.route(k, num_active) for k in keys)
    return counts


def static_router(num_servers):
    """The Static scenario's router and the servers it routes over."""
    static = scenario("static")
    schedule = ProvisioningSchedule(1.0, [1])  # the schedule asks for one
    return (
        static.router_factory(num_servers),
        static.provisioner(schedule, num_servers).counts[0],
    )


class TestStaticRouter:
    def test_uses_all_servers_regardless_of_active(self):
        router, active = static_router(8)
        keys = make_keys(4000)
        assert active == 8
        assert set(load_counts(router, keys, active)) == set(range(8))

    def test_balanced(self):
        router, active = static_router(4)
        counts = load_counts(router, make_keys(8000), active)
        assert min(counts.values()) / max(counts.values()) > 0.9

    def test_deterministic(self):
        router, active = static_router(5)
        assert router.route("k", active) == router.route("k", active)

    def test_name(self):
        # Static is Naive's router with every server on, not a router
        assert scenario("static").name == "Static"
        assert scenario("static").router_factory is NaiveRouter


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
        router = ConsistentRouter(8)
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
        consistent = load_counts(ConsistentRouter(8), keys, 8)
        proteus = load_counts(ProteusRouter(8), keys, 8)

        def ratio(counts):
            values = [counts.get(s, 0) for s in range(8)]
            return min(values) / max(values)

        assert ratio(proteus) > ratio(consistent)

    def test_rejects_too_few_total_vnodes(self):
        with pytest.raises(ConfigurationError):
            ConsistentRouter(4, total_vnodes=3)

    @pytest.mark.parametrize("num_servers", [0, -3])
    def test_rejects_an_empty_fleet_before_sizing_the_ring(self, num_servers):
        for total in (None, 5):
            with pytest.raises(ConfigurationError) as err:
                ConsistentRouter(num_servers, total_vnodes=total)
            assert str(err.value) == (
                f"num_servers must be >= 1, got {num_servers}"
            )

    @pytest.mark.parametrize("num_servers", [1, 4, 10])
    def test_validates_its_fleet_once(self, num_servers, monkeypatch):
        # The ring's fleet is checked by Router.__init__, once per router.
        calls = []
        init = Router.__init__

        def counting(self, fleet):
            calls.append(fleet)
            init(self, fleet)

        monkeypatch.setattr(Router, "__init__", counting)
        for router in (
            ConsistentRouter(num_servers),
            ConsistentRouter.quadratic_variant(num_servers),
        ):
            assert router.num_servers == num_servers
        assert calls == [num_servers, num_servers]


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
    def test_every_scenario_builds_its_router(self):
        assert isinstance(scenario("static").router_factory(4), NaiveRouter)
        assert isinstance(scenario("naive").router_factory(4), NaiveRouter)
        assert isinstance(
            scenario("consistent").router_factory(4), ConsistentRouter
        )
        assert isinstance(scenario("proteus").router_factory(4), ProteusRouter)

    def test_make_router_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            scenario("mystery")
        with pytest.raises(ConfigurationError):
            scenario("")

    def test_scenarios_keep_the_table_order(self):
        # the order the unknown-name error lists them in
        assert [spec.name for spec in SCENARIOS] == [
            "Static", "Naive", "Consistent", "Proteus",
        ]

    def test_lookup_is_case_insensitive(self):
        assert scenario(" Proteus ") is SCENARIOS[3]
        assert scenario("NAIVE") is SCENARIOS[1]

    def test_unknown_name_error_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as err:
            scenario("zeta")
        assert str(err.value) == (
            "unknown scenario 'zeta' "
            "(expected one of static, naive, consistent, proteus)"
        )

    def test_check_rejects_non_strings(self):
        # a non-string (``null`` in a JSON file) gets the same one error
        for name in (None, 3):
            with pytest.raises(ConfigurationError) as err:
                scenario(name)
            assert str(err.value) == (
                f"unknown scenario {name!r} "
                "(expected one of static, naive, consistent, proteus)"
            )

    def test_unified_error_message_everywhere(self, capsys):
        # every CLI scenario option offers the table's names, in its order
        from repro.cli import main

        commands = [
            ["route", "k", "--servers", "4", "--active", "2", "--scenario"],
            ["loadbalance", "--trace", "t", "--servers", "4",
             "--schedule", "2", "--slot-seconds", "1", "--scenario"],
        ]
        for command in commands:
            with pytest.raises(SystemExit):
                main(command + ["zeta"])
            err = capsys.readouterr().err
            listed = err[err.index("zeta"):]
            at = [listed.index(spec.name.lower()) for spec in SCENARIOS]
            assert at == sorted(at)
        assert main(["simulate", "--scenarios", "naive,zeta"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown scenario 'zeta' "
            "(expected one of static, naive, consistent, proteus)\n"
        )


class TestOneRouterPerScenario:
    """``route``, ``loadbalance`` and ``simulate`` build a scenario's
    router from the one table, so a name means one router everywhere."""

    FLEET = 10  # where the O(log n) and n^2/2 rings differ: 40 vs 50 vnodes

    @staticmethod
    def built_by(argv, monkeypatch):
        """The routers the CLI command *argv* builds."""
        from repro.cli import main

        built = []
        init = Router.__init__

        def recording(self, num_servers):
            init(self, num_servers)
            built.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(Router, "__init__", recording)
            assert main(argv) == 0
        return built

    @staticmethod
    def fingerprint(router, fleet):
        """Type, vnode count and every key's owner at every active count."""
        ring = getattr(router, "ring", None)
        keys = make_keys(2000)
        return (
            type(router),
            None if ring is None else len(ring),
            [router.route_many(keys, n) for n in range(1, fleet + 1)],
        )

    @pytest.mark.parametrize(
        "name", ["static", "naive", "consistent", "proteus"]
    )
    def test_commands_build_the_same_router(self, name, monkeypatch, tmp_path):
        fleet = str(self.FLEET)
        trace = tmp_path / "trace.csv"
        trace.write_text("0.5,page:1\n1.5,page:2\n")
        commands = [
            ["route", "k", "--servers", fleet, "--active", "3",
             "--scenario", name],
            ["loadbalance", "--trace", str(trace), "--servers", fleet,
             "--schedule", "3,2", "--slot-seconds", "1", "--scenario", name],
            ["simulate", "--scenarios", name, "--servers", fleet,
             "--schedule", "2", "--slot-seconds", "2",
             "--users-per-server", "1"],
        ]
        routers = [self.built_by(argv, monkeypatch) for argv in commands]
        assert [len(built) for built in routers] == [1, 1, 1]
        prints = [self.fingerprint(built[0], self.FLEET) for built in routers]
        assert prints[0] == prints[1] == prints[2]
        if name == "consistent":
            assert prints[0][1] == self.FLEET ** 2 // 2
