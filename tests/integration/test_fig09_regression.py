"""Regression lock on the Fig. 9 spike ordering.

The paper's headline response-time result: abrupt (Naive) transitions dump
remapped keys onto the database and spike the tail latency, while Proteus's
smooth transitions keep the curve flat.  This test pins the *ordering* of
the spike ratios on a small Table II scenario run, so refactors of
the retrieval path (e.g. moving Algorithm 2 into the sans-IO engine)
provably do not change experiment behaviour.
"""

import pytest

from repro.experiments.testbed import ScenarioSpec, Sizing, run_scenarios
from repro.provisioning.policies import ProvisioningSchedule


def spike_ratio(report):
    """Peak over baseline: the worst per-slot p99 over the median one (~1
    means no transition spike)."""
    ordered = sorted(report.latency_percentiles(99.0).values)
    baseline = ordered[len(ordered) // 2] if ordered else 0.0
    return report.peak_latency(99.0) / baseline if baseline > 0 else 0.0


@pytest.fixture(scope="module")
def reports():
    # One scale-down only: the slots around it carry the spike, the rest
    # stay quiet, so peak-over-median isolates the transition penalty.
    sizing = Sizing(
        seed=5,
        catalogue_size=2000,
        cache_capacity_bytes=4096 * 800,
        pages_per_user=20,
        num_web_servers=2,
        num_db_shards=3,
    )
    return run_scenarios(
        sizing, 4, 15.0,
        ProvisioningSchedule(30.0, [4, 3, 3, 3]), [40, 30, 30, 30],
        [ScenarioSpec.naive(), ScenarioSpec.proteus()],
        plot_slots=12, warmup_seconds=10.0,
    )


class TestSpikeOrdering:
    def test_naive_spike_ratio_dominates_proteus(self, reports):
        naive = spike_ratio(reports["Naive"])
        proteus = spike_ratio(reports["Proteus"])
        assert naive > 3 * proteus

    def test_proteus_stays_near_flat(self, reports):
        # ~1 means no transition spike; leave headroom for queueing noise
        # at this small scale, but far below the Naive spike.
        assert spike_ratio(reports["Proteus"]) < 20.0

    def test_naive_spikes_visibly(self, reports):
        assert spike_ratio(reports["Naive"]) > 20.0

    def test_smooth_transition_keeps_db_quiet(self, reports):
        assert reports["Proteus"].db_requests < reports["Naive"].db_requests
