"""Tests for the PDU-style power meter."""

import pytest

from repro.errors import ConfigurationError
from repro.power.meter import PowerMeter, busy_time_probe, utilization_probe
from repro.power.model import ServerPowerModel

MODEL = ServerPowerModel(p_off=5, p_idle=70, p_peak=120)


class TestPowerMeter:
    def test_sample_sums_channels(self):
        meter = PowerMeter()
        meter.add_channel("cache", lambda t: (True, 0.0), MODEL)
        meter.add_channel("cache", lambda t: (False, 0.0), MODEL)
        assert meter.sample(0.0) == 75.0

    def test_per_tier_series(self):
        meter = PowerMeter()
        meter.add_channel("cache", lambda t: (True, 0.0), MODEL)
        meter.add_channel("web", lambda t: (True, 1.0), MODEL)
        meter.sample(0.0)
        assert meter.tier_series["cache"].values == [70.0]
        assert meter.tier_series["web"].values == [120.0]
        assert meter.total_series.values == [190.0]
        assert meter.tiers() == ["cache", "web"]

    def test_energy_integration(self):
        meter = PowerMeter()
        meter.add_channel("cache", lambda t: (True, 0.0), MODEL)
        meter.sample(0.0)
        meter.sample(3600.0)
        assert meter.energy_joules() == pytest.approx(70.0 * 3600)
        assert meter.energy_kwh() == pytest.approx(0.07)
        assert meter.energy_kwh("cache") == pytest.approx(0.07)

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            PowerMeter(sample_period=0.0)


class TestProbes:
    def test_utilization_probe_counts_window_ops(self):
        counter = {"n": 0}
        probe = utilization_probe(
            requests_counter=lambda: counter["n"],
            powered=lambda: True,
            op_cost=0.01,
        )
        assert probe(0.0) == (True, 0.0)  # first sample: no window yet
        counter["n"] = 500  # 500 ops in 10 s at 10 ms each -> 50% busy
        on, utilization = probe(10.0)
        assert on and utilization == pytest.approx(0.5)

    def test_utilization_probe_caps_at_one(self):
        counter = {"n": 0}
        probe = utilization_probe(lambda: counter["n"], lambda: True, 1.0)
        probe(0.0)
        counter["n"] = 10_000
        assert probe(10.0)[1] == 1.0

    def test_busy_time_probe(self):
        busy = {"t": 0.0}
        probe = busy_time_probe(lambda: busy["t"], lambda: True)
        probe(0.0)
        busy["t"] = 5.0
        on, utilization = probe(10.0)
        assert on and utilization == pytest.approx(0.5)

    def test_busy_time_probe_powered_flag(self):
        probe = busy_time_probe(lambda: 0.0, lambda: False)
        assert probe(0.0)[0] is False
