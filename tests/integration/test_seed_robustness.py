"""The headline orderings must hold across seeds, not on one lucky draw."""

import pytest

from repro.experiments.testbed import Sizing, run_scenarios
from repro.provisioning.policies import ProvisioningSchedule

SEEDS = (101, 202)


def tiny_run(seed: int):
    sizing = Sizing(
        seed=seed,
        catalogue_size=3000,
        cache_capacity_bytes=4096 * 1200,
        pages_per_user=25,
        num_web_servers=2,
        num_db_shards=2,
    )
    return run_scenarios(
        sizing, 4, 20.0, ProvisioningSchedule(45.0, [4, 3, 4]), [48, 36, 48],
        plot_slots=9, warmup_seconds=10.0,
    )


@pytest.fixture(scope="module")
def all_reports():
    return {seed: tiny_run(seed) for seed in SEEDS}


class TestOrderingsAcrossSeeds:
    def test_naive_spikes_worst_every_seed(self, all_reports):
        for seed, reports in all_reports.items():
            assert (
                reports["Naive"].peak_latency(99.0)
                > reports["Proteus"].peak_latency(99.0)
            ), f"seed {seed}"

    def test_proteus_db_pressure_lowest_dynamic_every_seed(self, all_reports):
        for seed, reports in all_reports.items():
            assert (
                reports["Proteus"].db_requests
                < reports["Naive"].db_requests
            ), f"seed {seed}"
            assert (
                reports["Proteus"].db_requests
                <= reports["Consistent"].db_requests
            ), f"seed {seed}"

    def test_energy_savings_every_seed(self, all_reports):
        for seed, reports in all_reports.items():
            static = reports["Static"].energy_kwh["cache"]
            for name in ("Naive", "Consistent", "Proteus"):
                assert reports[name].energy_kwh["cache"] < static, (
                    f"seed {seed}, scenario {name}"
                )

    def test_hit_ratio_ordering_every_seed(self, all_reports):
        for seed, reports in all_reports.items():
            assert (
                reports["Proteus"].hit_ratio > reports["Naive"].hit_ratio
            ), f"seed {seed}"
