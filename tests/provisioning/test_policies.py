"""Tests for provisioning schedules and policies."""

import pytest

from repro.errors import ConfigurationError, ProvisioningError
from repro.provisioning.policies import (
    ProvisioningSchedule,
    limit_step_size,
    load_proportional_schedule,
    static_schedule,
)


class TestSchedule:
    def test_slot_lookup(self):
        schedule = ProvisioningSchedule(10.0, [3, 2, 4])
        assert [
            schedule.slot_of(when) for when in (0.0, 9.99, 10.0, 25.0)
        ] == [0, 0, 1, 2]

    def test_clamps_out_of_range_times(self):
        schedule = ProvisioningSchedule(10.0, [3, 2])
        assert schedule.slot_of(-5.0) == 0
        assert schedule.slot_of(1000.0) == 1

    def test_server_slot_total(self):
        assert ProvisioningSchedule(10.0, [3, 2, 4]).server_slot_total() == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProvisioningSchedule(0.0, [1])
        with pytest.raises(ConfigurationError):
            ProvisioningSchedule(10.0, [])
        with pytest.raises(ProvisioningError):
            ProvisioningSchedule(10.0, [1, 0])


class TestStaticSchedule:
    def test_all_on(self):
        schedule = static_schedule(8, 5, slot_seconds=10.0)
        assert schedule.counts == [8] * 5


class TestLoadProportional:
    def test_sizing(self):
        schedule = load_proportional_schedule(
            [100, 250, 400], per_server_capacity=100, num_servers=10,
            slot_seconds=10.0,
        )
        assert schedule.counts == [1, 3, 4]

    def test_clamping(self):
        schedule = load_proportional_schedule(
            [0, 10_000], per_server_capacity=100, num_servers=5,
            min_servers=2, slot_seconds=10.0,
        )
        assert schedule.counts == [2, 5]

    def test_tracks_workload_shape(self):
        workload = [100, 200, 400, 200, 100]
        schedule = load_proportional_schedule(
            workload, per_server_capacity=50, num_servers=10, slot_seconds=10.0
        )
        assert schedule.counts[2] == max(schedule.counts)
        assert schedule.counts[0] == min(schedule.counts)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            load_proportional_schedule([1], per_server_capacity=0, num_servers=2)
        with pytest.raises(ConfigurationError):
            load_proportional_schedule([1], 10, num_servers=2, min_servers=3)


class TestLimitStepSize:
    def test_clamps_jumps(self):
        schedule = ProvisioningSchedule(10.0, [2, 6, 6, 1])
        smoothed = limit_step_size(schedule, max_step=1)
        assert smoothed.counts == [2, 3, 4, 3]

    def test_already_smooth_unchanged(self):
        schedule = ProvisioningSchedule(10.0, [2, 3, 2])
        assert limit_step_size(schedule).counts == [2, 3, 2]

    def test_larger_steps(self):
        schedule = ProvisioningSchedule(10.0, [2, 8])
        assert limit_step_size(schedule, max_step=3).counts == [2, 5]

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            limit_step_size(ProvisioningSchedule(10.0, [1, 2]), max_step=0)
