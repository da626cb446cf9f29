"""Tests for trace analysis (fitting generator knobs to a trace)."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.analysis import (
    fit_zipf_alpha,
    interarrival_stats,
    rate_envelope,
    summarize,
)
from repro.workload.trace import TraceRecord
from repro.workload.wikipedia import generate_trace


@pytest.fixture(scope="module")
def synthetic_trace():
    return generate_trace(
        duration=300.0, mean_rate=200.0, num_pages=5000, alpha=0.9,
        peak_to_valley=2.0, seed=33,
    )


class TestZipfFit:
    def test_recovers_the_generating_alpha(self, synthetic_trace):
        fitted = fit_zipf_alpha(synthetic_trace)
        assert fitted == pytest.approx(0.9, abs=0.15)

    def test_uniform_trace_fits_near_zero(self):
        trace = generate_trace(
            duration=120.0, mean_rate=200.0, num_pages=500, alpha=0.0, seed=1
        )
        assert fit_zipf_alpha(trace) < 0.25

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_zipf_alpha([])
        two_keys = [TraceRecord(0.0, "a"), TraceRecord(1.0, "b")]
        with pytest.raises(ConfigurationError):
            fit_zipf_alpha(two_keys)


class TestInterarrival:
    def test_poisson_cv_near_one(self, synthetic_trace):
        stats = interarrival_stats(synthetic_trace)
        assert stats.cv == pytest.approx(1.0, abs=0.1)

    def test_regular_arrivals_cv_zero(self):
        trace = [TraceRecord(i * 1.0, "k") for i in range(100)]
        stats = interarrival_stats(trace)
        assert stats.cv == pytest.approx(0.0, abs=1e-9)

    def test_bursty_detected(self):
        trace = []
        t = 0.0
        for burst in range(20):
            for i in range(20):
                trace.append(TraceRecord(t + i * 0.001, f"k{i}"))
            t += 10.0
        assert interarrival_stats(trace).cv > 1.3  # burstier than Poisson

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            interarrival_stats([TraceRecord(0.0, "a")])
        with pytest.raises(ConfigurationError):
            interarrival_stats([TraceRecord(1.0, "a"), TraceRecord(0.0, "b")])


class TestEnvelopeAndSummary:
    def test_rate_envelope(self):
        trace = [TraceRecord(t * 0.1, "k") for t in range(100)]  # 10 req/s
        envelope = rate_envelope(trace, window_seconds=1.0)
        assert all(rate == pytest.approx(10.0) for rate in envelope)

    def test_summary_round_trip_with_generator(self, synthetic_trace):
        summary = summarize(synthetic_trace, window_seconds=30.0)
        assert summary.requests == len(synthetic_trace)
        assert summary.mean_rate == pytest.approx(200.0, rel=0.1)
        assert summary.peak_to_valley == pytest.approx(2.0, rel=0.3)
        assert summary.zipf_alpha == pytest.approx(0.9, abs=0.15)
        assert summary.distinct_keys <= 5000

    def test_summary_validation(self):
        with pytest.raises(ConfigurationError):
            summarize([TraceRecord(0.0, "a")])
