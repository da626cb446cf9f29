"""Tests for metrics: percentiles, time series, slotted recorders."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.metrics import SlottedRecorder, TimeSeries, min_max_ratio, percentile


class TestPercentile:
    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_matches_numpy(self):
        import numpy as np

        values = [float(i) for i in range(101)]
        for pct in (25, 50, 90, 99, 99.9):
            assert percentile(values, pct) == pytest.approx(
                float(np.percentile(values, pct))
            )

    def test_single_value(self):
        assert percentile([7.0], 99.9) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)


class TestTimeSeries:
    def test_append(self):
        ts = TimeSeries()
        for t in range(10):
            ts.append(float(t), t * 10.0)
        assert ts.times[2:5] == [2.0, 3.0, 4.0]
        assert ts.values[2:5] == [20.0, 30.0, 40.0]
        assert len(ts) == 10

    def test_out_of_order_append_rejected(self):
        ts = TimeSeries()
        ts.append(5.0, 1.0)
        with pytest.raises(ConfigurationError):
            ts.append(4.0, 1.0)

    def test_integrate_trapezoid(self):
        ts = TimeSeries()
        ts.append(0.0, 100.0)
        ts.append(10.0, 100.0)
        assert ts.integrate() == pytest.approx(1000.0)  # constant power
        ts.append(20.0, 0.0)
        assert ts.integrate() == pytest.approx(1000.0 + 500.0)  # ramp down

    def test_integrate_empty_and_single(self):
        assert TimeSeries().integrate() == 0.0
        ts = TimeSeries()
        ts.append(0.0, 5.0)
        assert ts.integrate() == 0.0


class TestSlottedRecorder:
    def test_slotting(self):
        rec = SlottedRecorder(10.0)
        rec.record(5.0, 1.0)
        rec.record(15.0, 2.0)
        rec.record(16.0, 3.0)
        assert rec.slots() == [0, 1]
        assert rec.samples(0) == [1.0] and rec.samples(1) == [2.0, 3.0]

    def test_start_offset(self):
        rec = SlottedRecorder(10.0, start=100.0)
        rec.record(105.0, 1.0)
        assert rec.slots() == [0]

    def test_reducers(self):
        # Every slot reduces to a percentile: 0 and 100 are its extremes.
        rec = SlottedRecorder(10.0)
        for value in (1.0, 2.0, 3.0, 10.0):
            rec.record(1.0, value)
        rec.record(11.0, 7.0)
        assert rec.series(50).values == [2.5, 7.0]
        assert rec.series(100).values == [10.0, 7.0]
        assert rec.series(0).values == [1.0, 7.0]

    def test_series_midpoint_times(self):
        rec = SlottedRecorder(10.0)
        rec.record(5.0, 1.0)
        rec.record(25.0, 1.0)
        series = rec.series(50)
        assert series.times == [5.0, 25.0]

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            SlottedRecorder(0.0)


class TestMinMaxRatio:
    def test_balanced(self):
        assert min_max_ratio([10, 10, 10]) == 1.0

    def test_imbalanced(self):
        assert min_max_ratio([5, 10]) == 0.5

    def test_zero_load_server(self):
        assert min_max_ratio([0, 10]) == 0.0

    def test_all_zero_is_trivially_balanced(self):
        assert min_max_ratio([0, 0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            min_max_ratio([])
