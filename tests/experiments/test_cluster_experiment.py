"""Tests for the Table II scenario runs on the testbed (Figs. 9-11)."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.testbed import (
    SCENARIOS,
    Sizing,
    run_scenarios,
    scenario,
)
from repro.provisioning.policies import ProvisioningSchedule

SIZING = Sizing(
    seed=3,
    catalogue_size=2000,
    cache_capacity_bytes=4096 * 800,
    pages_per_user=20,
    num_web_servers=2,
    num_db_shards=2,
)
SCHEDULE = ProvisioningSchedule(30.0, [4, 3, 3, 4])
USERS = [40, 30, 30, 40]


def bed_for(spec):
    return spec.testbed(SIZING, 4, 15.0)


def run(spec, seed=3, schedule=SCHEDULE, users=USERS, warmup_seconds=10.0):
    return run_all(seed, schedule, users, [spec], warmup_seconds)[spec.name]


def run_all(seed=3, schedule=SCHEDULE, users=USERS, specs=None,
            warmup_seconds=10.0):
    return run_scenarios(
        replace(SIZING, seed=seed), 4, 15.0, schedule, users, specs,
        plot_slots=12, warmup_seconds=warmup_seconds,
    )


@pytest.fixture(scope="module")
def static_report():
    return run(scenario("static"))


class TestScenarioSpec:
    def test_all_four_names_match_table2(self):
        names = [s.name for s in SCENARIOS]
        assert names == ["Static", "Naive", "Consistent", "Proteus"]

    def test_only_proteus_is_smooth(self):
        for spec in SCENARIOS:
            assert spec.smooth == (spec.name == "Proteus")

    def test_only_static_is_not_dynamic(self):
        for spec in SCENARIOS:
            assert spec.dynamic == (spec.name != "Static")

    def test_coalescing_defers_to_config_by_default(self):
        # Off by default, as in the paper's evaluation.
        for spec in SCENARIOS:
            assert spec.coalesce_misses is False
            assert not any(
                web.config.coalesce_misses for web in bed_for(spec).webs
            )

    def test_with_coalescing_overrides_config(self):
        spec = scenario("naive").with_coalescing()
        assert spec.name == "Naive+coalesce"
        assert spec.coalesce_misses is True
        assert all(web.config.coalesce_misses for web in bed_for(spec).webs)
        # The override works in both directions.
        off = scenario("naive").with_coalescing(False)
        assert off.name == "Naive-coalesce"
        assert not any(web.config.coalesce_misses for web in bed_for(off).webs)


class TestConfigValidation:
    def test_slot_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            run(scenario("proteus"), users=[10, 10])

    def test_oversubscribed_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            run(scenario("proteus"),
                schedule=ProvisioningSchedule(30.0, [9, 9, 9, 9]))

    def test_duration(self, static_report):
        assert static_report.duration == 120.0


class TestSingleScenarioRun:
    @pytest.fixture(scope="class")
    def proteus_report(self):
        return run(scenario("proteus"))

    def test_requests_were_served(self, proteus_report):
        assert proteus_report.total_requests > 1000

    def test_latency_slots_populated(self, proteus_report):
        series = proteus_report.latency_percentiles(99.0)
        assert len(series) >= 10

    def test_transitions_follow_schedule(self, proteus_report):
        assert [
            (t.fields["n_old"], t.fields["n_new"])
            for t in proteus_report.transitions
        ] == [(4, 3), (3, 4)]
        assert all(t.fields["smooth"] for t in proteus_report.transitions)

    def test_power_series_has_all_tiers(self, proteus_report):
        assert set(proteus_report.power_series) == {
            "total", "cache", "web", "database",
        }

    def test_energy_decomposes(self, proteus_report):
        parts = (
            proteus_report.energy_kwh["cache"]
            + proteus_report.energy_kwh["web"]
            + proteus_report.energy_kwh["database"]
        )
        assert parts == pytest.approx(proteus_report.energy_kwh["total"], rel=1e-6)

    def test_active_series_tracks_schedule(self, proteus_report):
        values = proteus_report.active_series.values
        assert max(values) == 4
        assert min(values) == 3

    def test_high_hit_ratio(self, proteus_report):
        assert proteus_report.hit_ratio > 0.8

    def test_fetch_paths_accounted(self, proteus_report):
        assert sum(proteus_report.fetch_paths.values()) == (
            proteus_report.total_requests
        )
        assert proteus_report.fetch_paths["hit_old"] > 0  # transitions happened


class TestStaticScenario:
    def test_static_never_transitions(self, static_report):
        report = static_report
        assert report.transitions == []
        assert set(report.active_series.values) == {4.0}


class TestCrossScenario:
    @pytest.fixture(scope="class")
    def reports(self):
        return run_all(seed=5)

    def test_all_four_ran(self, reports):
        assert set(reports) == {"Static", "Naive", "Consistent", "Proteus"}

    def test_naive_touches_db_most(self, reports):
        assert reports["Naive"].db_requests > reports["Proteus"].db_requests
        assert reports["Naive"].db_requests > reports["Static"].db_requests

    def test_proteus_db_pressure_near_static(self, reports):
        # The headline claim: Proteus transitions are invisible to the DB.
        static_db = max(1, reports["Static"].db_requests)
        assert reports["Proteus"].db_requests <= 2.5 * static_db

    def test_dynamic_scenarios_save_cache_energy(self, reports):
        static_cache = reports["Static"].energy_kwh["cache"]
        for name in ("Naive", "Consistent", "Proteus"):
            assert reports[name].energy_kwh["cache"] < static_cache

    def test_naive_spike_dominates_proteus(self, reports):
        assert (
            reports["Naive"].peak_latency(99.0)
            > reports["Proteus"].peak_latency(99.0)
        )

    def test_only_proteus_uses_old_server_path(self, reports):
        assert reports["Proteus"].fetch_paths["hit_old"] > 0
        for name in ("Static", "Naive", "Consistent"):
            assert reports[name].fetch_paths["hit_old"] == 0


class TestWarmupAndPrewarm:
    def test_prewarm_fills_initial_users_pages(self):
        bed = bed_for(scenario("proteus"))
        bed.resize_population(USERS[0])
        bed.prewarm()
        total_items = sum(len(server.store) for server in bed.cache.servers)
        distinct_pages = len(
            {page for user in bed.population.active for page in user.pages}
        )
        assert total_items == distinct_pages

    def test_warmup_excludes_early_latency_samples(self):
        report = run(scenario("static"), warmup_seconds=30.0)
        first_slot_time = report.latency_percentiles(50.0).times[0]
        assert first_slot_time >= 30.0

    def test_prewarm_off_means_cold_start(self):
        static = scenario("static")
        cold = static.testbed(replace(SIZING, seed=11), 4, 15.0)
        cold.prewarm = lambda: None
        cold_report = cold.run(USERS, 30.0, static.provisioner(SCHEDULE, 4))
        assert cold_report.db_requests > run(static, seed=11).db_requests
