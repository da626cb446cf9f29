"""Tests for the server power model."""

import pytest

from repro.errors import ConfigurationError
from repro.power.model import ServerPowerModel


class TestServerPowerModel:
    def test_off_draws_standby(self):
        model = ServerPowerModel(p_off=5, p_idle=70, p_peak=120)
        assert model.power(False, 1.0) == 5

    def test_linear_interpolation(self):
        model = ServerPowerModel(p_off=5, p_idle=70, p_peak=120)
        assert model.power(True, 0.0) == 70
        assert model.power(True, 1.0) == 120
        assert model.power(True, 0.5) == 95

    def test_utilization_clamped(self):
        model = ServerPowerModel()
        assert model.power(True, 1.5) == model.power(True, 1.0)
        assert model.power(True, -0.5) == model.power(True, 0.0)

    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(p_off=100, p_idle=70, p_peak=120)
        with pytest.raises(ConfigurationError):
            ServerPowerModel(p_off=5, p_idle=150, p_peak=120)

    def test_idle_dominates_energy(self):
        # The premise of power-proportional provisioning: an idle-but-on
        # server still burns most of its peak power.
        model = ServerPowerModel()
        assert model.power(True, 0.0) > 0.5 * model.power(True, 1.0)
