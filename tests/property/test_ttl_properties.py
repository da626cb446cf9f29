"""Property-based tests for the adaptive drain-window policy.

Two guarantees matter operationally whatever the observed decay looks
like: every window the policy emits is inside the configured clamps, and
the sizing is monotone in the observed half-life (slower decay never gets
a shorter window).  The estimator carries its own invariant: a half-life
it returns always lies inside the observed sample span.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provisioning import ttl as ttl_module
from repro.provisioning.ttl import AdaptiveTTLPolicy, estimate_half_life

half_lives = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
bounds = st.tuples(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=500.0),
).map(lambda pair: (pair[0], pair[0] + pair[1]))
residuals = st.floats(min_value=1e-6, max_value=0.999)


def constants(min_ttl, residual):
    """The policy's floor and residual set to the drawn values."""
    return mock.patch.multiple(
        ttl_module, MIN_TTL=min_ttl, TARGET_RESIDUAL=residual
    )


@given(
    observed=st.lists(half_lives, min_size=0, max_size=12),
    clamp=bounds,
    residual=residuals,
)
@settings(max_examples=120, deadline=None)
def test_window_always_inside_the_clamps(observed, clamp, residual):
    min_ttl, max_ttl = clamp
    with constants(min_ttl, residual):
        policy = AdaptiveTTLPolicy(default_ttl=60.0, max_ttl=max_ttl)
        policy.half_lives.extend(observed)
        ttl = policy.ttl_for()
    assert min_ttl <= ttl <= max_ttl
    if not observed:
        # inert until evidence arrives: the (clamped) configured default.
        assert ttl == min(max_ttl, max(min_ttl, 60.0))


@given(
    low=half_lives,
    high=half_lives,
    clamp=bounds,
    residual=residuals,
)
@settings(max_examples=120, deadline=None)
def test_window_is_monotone_in_the_half_life(low, high, clamp, residual):
    if low > high:
        low, high = high, low
    min_ttl, max_ttl = clamp
    with constants(min_ttl, residual):
        slow = AdaptiveTTLPolicy(max_ttl=max_ttl)
        fast = AdaptiveTTLPolicy(max_ttl=max_ttl)
        fast.half_lives.append(low)
        slow.half_lives.append(high)
        assert fast.ttl_for() <= slow.ttl_for()


@given(
    counts=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=2, max_size=30,
    ),
    interval=st.floats(min_value=0.1, max_value=60.0),
)
@settings(max_examples=120, deadline=None)
def test_estimate_stays_inside_the_sample_span(counts, interval):
    samples = [((i + 1) * interval, c) for i, c in enumerate(counts)]
    estimate = estimate_half_life(samples)
    if estimate is not None:
        assert 0.0 < estimate <= samples[-1][0]
