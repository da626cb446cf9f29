"""Tests for the full 3-tier cluster experiment harness (Figs. 9-11)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cluster import (
    ClusterExperiment,
    ExperimentConfig,
    ScenarioSpec,
    run_scenarios,
)
from repro.provisioning.policies import ProvisioningSchedule


def small_config(**overrides):
    defaults = dict(
        schedule=ProvisioningSchedule(30.0, [4, 3, 3, 4]),
        users_per_slot=[40, 30, 30, 40],
        num_cache_servers=4,
        num_web_servers=2,
        num_db_shards=2,
        catalogue_size=2000,
        cache_capacity_bytes=4096 * 800,
        ttl=15.0,
        plot_slots=12,
        pages_per_user=20,
        seed=3,
        warmup_seconds=10.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestScenarioSpec:
    def test_all_four_names_match_table2(self):
        names = [s.name for s in ScenarioSpec.all_four()]
        assert names == ["Static", "Naive", "Consistent", "Proteus"]

    def test_only_proteus_is_smooth(self):
        for spec in ScenarioSpec.all_four():
            assert spec.smooth == (spec.name == "Proteus")

    def test_only_static_is_not_dynamic(self):
        for spec in ScenarioSpec.all_four():
            assert spec.dynamic == (spec.name != "Static")

    def test_coalescing_defers_to_config_by_default(self):
        # Off by default, as in the paper's evaluation.
        for spec in ScenarioSpec.all_four():
            assert spec.coalesce_misses is False
            experiment = ClusterExperiment(spec, small_config())
            assert not any(
                web.config.coalesce_misses for web in experiment.testbed.webs
            )

    def test_with_coalescing_overrides_config(self):
        spec = ScenarioSpec.naive().with_coalescing()
        assert spec.name == "Naive+coalesce"
        assert spec.coalesce_misses is True
        experiment = ClusterExperiment(spec, small_config())
        assert all(web.config.coalesce_misses for web in experiment.testbed.webs)
        # The override works in both directions.
        off = ScenarioSpec.naive().with_coalescing(False)
        assert off.name == "Naive-coalesce"
        experiment = ClusterExperiment(off, small_config())
        assert not any(web.config.coalesce_misses for web in experiment.testbed.webs)


class TestConfigValidation:
    def test_slot_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(users_per_slot=[10, 10])

    def test_oversubscribed_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(schedule=ProvisioningSchedule(30.0, [9, 9, 9, 9]))

    def test_duration(self):
        assert small_config().duration == 120.0


class TestSingleScenarioRun:
    @pytest.fixture(scope="class")
    def proteus_report(self):
        return ClusterExperiment(ScenarioSpec.proteus(), small_config()).run()

    def test_requests_were_served(self, proteus_report):
        assert proteus_report.total_requests > 1000

    def test_latency_slots_populated(self, proteus_report):
        series = proteus_report.latency_percentiles(99.0)
        assert len(series) >= 10

    def test_transitions_follow_schedule(self, proteus_report):
        assert [(t.n_old, t.n_new) for t in proteus_report.transitions] == [
            (4, 3), (3, 4),
        ]
        assert all(t.smooth for t in proteus_report.transitions)

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
    def test_static_never_transitions(self):
        report = ClusterExperiment(ScenarioSpec.static(), small_config()).run()
        assert report.transitions == []
        assert set(report.active_series.values) == {4.0}


class TestCrossScenario:
    @pytest.fixture(scope="class")
    def reports(self):
        return run_scenarios(small_config(seed=5))

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
        testbed = ClusterExperiment(
            ScenarioSpec.proteus(), small_config()
        ).testbed
        testbed.resize_population(small_config().users_per_slot[0])
        testbed.prewarm()
        total_items = sum(len(server.store) for server in testbed.cache.servers)
        distinct_pages = len(
            {page for user in testbed.population.active for page in user.pages}
        )
        assert total_items == distinct_pages

    def test_warmup_excludes_early_latency_samples(self):
        report = ClusterExperiment(
            ScenarioSpec.static(), small_config(warmup_seconds=30.0)
        ).run()
        first_slot_time = report.latencies.series("count").times[0]
        assert first_slot_time >= 30.0

    def test_prewarm_off_means_cold_start(self):
        cold = ClusterExperiment(ScenarioSpec.static(), small_config(seed=11))
        cold.testbed.prewarm = lambda: None
        warm = ClusterExperiment(ScenarioSpec.static(), small_config(seed=11))
        assert cold.run().db_requests > warm.run().db_requests


class TestReportSerialization:
    def test_to_dict_and_save_roundtrip(self, tmp_path):
        import json

        report = ClusterExperiment(ScenarioSpec.proteus(), small_config()).run()
        payload = report.to_dict(pct=99.0)
        assert payload["scenario"] == "Proteus"
        assert payload["total_requests"] == report.total_requests
        assert len(payload["latency_series"]["values"]) >= 1
        assert set(payload["power_series"]) == {
            "total", "cache", "web", "database",
        }
        path = tmp_path / "report.json"
        report.save(path, pct=99.0)
        loaded = json.loads(path.read_text())
        assert loaded == payload
