"""Tests for the provisioning-order tooling (Section III-A)."""

import pytest

from repro.errors import ConfigurationError
from repro.power.model import ServerPowerModel
from repro.provisioning.order import (
    OrderedFleet,
    ServerSpec,
    efficiency_order,
    random_order,
)

EFFICIENT = ServerSpec("new-gen", capacity=300, power=ServerPowerModel(5, 60, 100))
MIDDLING = ServerSpec("mid-gen", capacity=200, power=ServerPowerModel(5, 70, 110))
GUZZLER = ServerSpec("old-gen", capacity=150, power=ServerPowerModel(5, 90, 150))


class TestServerSpec:
    def test_efficiency(self):
        assert EFFICIENT.efficiency == pytest.approx(3.0)
        assert GUZZLER.efficiency == pytest.approx(1.0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            ServerSpec("bad", capacity=0)


class TestOrders:
    def test_efficiency_order_descends(self):
        order = efficiency_order([GUZZLER, EFFICIENT, MIDDLING])
        assert order == [1, 2, 0]

    def test_ties_broken_by_capacity_then_position(self):
        a = ServerSpec("a", capacity=100, power=ServerPowerModel(5, 60, 100))
        b = ServerSpec("b", capacity=200, power=ServerPowerModel(5, 60, 200))
        # same efficiency (1.0): larger capacity first
        assert efficiency_order([a, b]) == [1, 0]

    def test_random_order_is_permutation_and_seeded(self):
        order = random_order(6, seed=3)
        assert sorted(order) == list(range(6))
        assert random_order(6, seed=3) == order

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            efficiency_order([])
        with pytest.raises(ConfigurationError):
            random_order(0)


class TestOrderedFleet:
    @pytest.fixture
    def fleet(self):
        return OrderedFleet([GUZZLER, EFFICIENT, MIDDLING])

    def test_default_order_is_efficiency(self, fleet):
        assert fleet.spec_of(0) is EFFICIENT
        assert fleet.spec_of(2) is GUZZLER

    def test_rejects_non_permutation(self):
        with pytest.raises(ConfigurationError):
            OrderedFleet([EFFICIENT, GUZZLER], order=[0, 0])

    def test_servers_for_load(self, fleet):
        assert fleet.servers_for_load(250) == 1
        assert fleet.servers_for_load(400) == 2
        assert fleet.servers_for_load(650) == 3
        with pytest.raises(ConfigurationError):
            fleet.servers_for_load(651)

    def test_power_draw_off_servers_standby(self, fleet):
        idle_all_off_but_one = fleet.power_draw(1, load=0.0)
        assert idle_all_off_but_one == pytest.approx(60 + 5 + 5)

    def test_power_draw_load_split_evenly(self, fleet):
        # 2 active, load 300 -> 150 each; EFFICIENT at 50% util, MIDDLING 75%.
        watts = fleet.power_draw(2, load=300.0)
        expected = (60 + 0.5 * 40) + (70 + 0.75 * 40) + 5
        assert watts == pytest.approx(expected)

    def test_efficiency_order_beats_reverse_order_on_energy(self):
        specs = [GUZZLER, EFFICIENT, MIDDLING]
        loads = [120.0, 260.0, 420.0, 260.0, 120.0]
        good = OrderedFleet(specs)  # efficiency order
        bad = OrderedFleet(specs, order=list(reversed(efficiency_order(specs))))
        schedule_good = good.schedule_for(loads, slot_seconds=60.0)
        schedule_bad = bad.schedule_for(loads, slot_seconds=60.0)
        energy_good = good.energy_joules(schedule_good, loads)
        energy_bad = bad.energy_joules(schedule_bad, loads)
        # Section III-A: decreasing-efficiency order saves energy.
        assert energy_good < energy_bad

    def test_schedule_for_respects_min(self, fleet):
        schedule = fleet.schedule_for([0.0, 10.0], slot_seconds=10.0, min_servers=2)
        assert schedule.counts == [2, 2]

    def test_energy_requires_matching_loads(self, fleet):
        schedule = fleet.schedule_for([100.0], slot_seconds=10.0)
        with pytest.raises(ConfigurationError):
            fleet.energy_joules(schedule, [100.0, 200.0])
