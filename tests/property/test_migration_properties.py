"""Property-based tests for provisioning schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provisioning.policies import ProvisioningSchedule, limit_step_size


@given(
    counts=st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                    max_size=30),
    max_step=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_limit_step_size_properties(counts, max_step):
    schedule = ProvisioningSchedule(10.0, counts)
    smoothed = limit_step_size(schedule, max_step=max_step)
    # Same length, same start, every step bounded, all counts >= 1.
    assert smoothed.num_slots == schedule.num_slots
    assert smoothed.counts[0] == counts[0]
    for a, b in zip(smoothed.counts, smoothed.counts[1:]):
        assert abs(b - a) <= max_step
    assert all(c >= 1 for c in smoothed.counts)
    # Smoothing moves toward the target each slot (never overshoots).
    for target, previous, value in zip(
        counts[1:], smoothed.counts, smoothed.counts[1:]
    ):
        low, high = sorted((previous, target))
        assert low <= value <= high

