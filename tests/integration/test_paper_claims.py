"""Integration tests pinned to the paper's quantitative and qualitative claims.

Each test names the paper statement it checks.  Scales are reduced, so
assertions target the *shape* (orderings, ratios, zero-penalty properties),
not the absolute testbed numbers.
"""

import pytest

from repro.bloom.config import optimal_config
from repro.core.migration import empirical_remap_fraction, migration_lower_bound
from repro.core.placement import place_virtual_nodes, theoretical_min_vnodes
from repro.core.router import NaiveRouter, ProteusRouter
from repro.experiments.testbed import Sizing, run_scenarios
from repro.provisioning.policies import ProvisioningSchedule


class TestSectionIClaims:
    def test_reddit_incident_n_over_n_plus_1(self):
        """Intro: adding one server to an n-server modulo cluster remaps
        n/(n+1) of data IDs."""
        for n in (4, 9):
            measured = empirical_remap_fraction(
                NaiveRouter(n + 1), n, n + 1, num_samples=6000
            )
            assert measured == pytest.approx(n / (n + 1), abs=0.02)


class TestSectionIIIClaims:
    def test_theorem1_and_algorithm1_agree(self):
        """Theorem 1's N(N-1)/2+1 bound is met with equality by Algorithm 1."""
        for n in (2, 5, 10):
            assert place_virtual_nodes(n, 2 ** 30).num_vnodes == (
                theoretical_min_vnodes(n)
            )

    def test_migration_at_lower_bound(self):
        """Section II objective: at most |Δn|/max(n,n') of data remapped."""
        router = ProteusRouter(10)
        for n_old, n_new in ((10, 8), (6, 7), (3, 2)):
            bound = float(migration_lower_bound(n_old, n_new))
            measured = empirical_remap_fraction(router, n_old, n_new, 6000)
            assert measured <= bound + 0.02


class TestSectionIVClaims:
    def test_paper_bloom_sizing_example(self):
        """Section IV-B worked example: (1e4, 4, 1e-4, 1e-4) -> ~150 KB."""
        cfg = optimal_config(10_000, 4, 1e-4, 1e-4)
        assert cfg.counter_bits == 3
        assert 120 * 1024 < cfg.memory_bytes < 160 * 1024


class TestSectionVIClaims:
    """The headline evaluation, at reduced scale, all four scenarios."""

    @pytest.fixture(scope="class")
    def reports(self):
        schedule = ProvisioningSchedule(60.0, [6, 5, 4, 3, 4, 5, 6, 6])
        users = [90, 75, 60, 45, 60, 75, 90, 90]
        sizing = Sizing(
            seed=17,
            catalogue_size=6000,
            cache_capacity_bytes=4096 * 1500,
            pages_per_user=50,
            num_web_servers=3,
            num_db_shards=3,
        )
        return run_scenarios(
            sizing, 6, 45.0, schedule, users,
            plot_slots=24, warmup_seconds=20.0,
        )

    def test_fig9_naive_has_the_worst_spike(self, reports):
        """Fig. 9: 'there is a huge response time spike' for Naive."""
        naive_peak = reports["Naive"].peak_latency(99.0)
        static_peak = reports["Static"].peak_latency(99.0)
        assert naive_peak > 2.0 * static_peak

    def test_fig9_proteus_matches_static(self, reports):
        """Fig. 9: 'Proteus's performance match what the static solution
        achieves' — peak within 2x of Static's (same order), far below
        Naive."""
        proteus_peak = reports["Proteus"].peak_latency(99.0)
        static_peak = reports["Static"].peak_latency(99.0)
        naive_peak = reports["Naive"].peak_latency(99.0)
        assert proteus_peak < 2.0 * static_peak
        assert proteus_peak < 0.5 * naive_peak

    def test_fig9_consistent_in_between(self, reports):
        """Fig. 9: consistent hashing 'shows much better performance during
        dynamics [than Naive], but there are still considerable
        performance degradation'."""
        assert (
            reports["Consistent"].peak_latency(99.0)
            < reports["Naive"].peak_latency(99.0)
        )

    def test_fig10_dynamic_scenarios_draw_less_power(self, reports):
        """Fig. 10: the three provisioned scenarios save similar power vs
        Static."""
        static = reports["Static"].energy_kwh["total"]
        for name in ("Naive", "Consistent", "Proteus"):
            assert reports[name].energy_kwh["total"] < static

    def test_fig11_energy_savings_in_paper_range(self, reports):
        """Fig. 11: ~10% whole-cluster and ~23% cache-tier saving.  Exact
        percentages depend on the schedule depth; assert the right order of
        magnitude and that cache-tier saving exceeds whole-cluster saving."""
        static = reports["Static"].energy_kwh
        proteus = reports["Proteus"].energy_kwh
        total_saving = 1 - proteus["total"] / static["total"]
        cache_saving = 1 - proteus["cache"] / static["cache"]
        assert 0.03 < total_saving < 0.30
        assert 0.10 < cache_saving < 0.45
        assert cache_saving > total_saving

    def test_proteus_saves_as_much_as_naive(self, reports):
        """Fig. 11: 'Proteus ... saves the same amount of energy compared to
        Naive and Consistent cases' (within a few percent — Proteus keeps
        drained servers on for TTL)."""
        naive = reports["Naive"].energy_kwh["total"]
        proteus = reports["Proteus"].energy_kwh["total"]
        assert proteus == pytest.approx(naive, rel=0.06)

    def test_proteus_db_pressure_flat(self, reports):
        """Section IV: 'the database tier will not realize transition
        dynamics is taking place'."""
        assert (
            reports["Proteus"].db_requests
            < 0.5 * reports["Naive"].db_requests
        )
