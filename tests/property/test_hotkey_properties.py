"""Properties of the top-k election sketch (repro.core.hotkey).

Pins the election guarantee documented on :class:`TopKSketch`: because the
count-min sketch never underestimates, a sketch with capacity ``2k`` ends
every stream with an elected set that is a **superset of the true top-k**
whenever the top-k counts are strictly separated from the rest (at most
``k - 1`` other keys can ever out-estimate a true top-k key, so a full
tracker of ``2k`` entries can never select one as the eviction minimum).
Also pins the eviction discipline itself: a tracked key is only ever
displaced by a newcomer whose estimate has reached the tracked minimum.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hotkey
from repro.core.hotkey import CountMinSketch, HotKeyCache, TopKSketch


def top_k(capacity):
    """A *capacity* tracker over a sketch wide relative to the key pool:
    estimates are exact in practice, so the properties test the election
    logic, not collision noise."""
    with mock.patch.multiple(hotkey, TOP_K=capacity, SKETCH_WIDTH=4096):
        return TopKSketch()


@st.composite
def skewed_streams(draw):
    """A shuffled stream with unique per-key counts and its parameters."""
    k = draw(st.integers(min_value=1, max_value=6))
    num_keys = draw(st.integers(min_value=2 * k, max_value=30))
    # Unique counts => strict separation between every pair of ranks.
    counts = draw(
        st.lists(
            st.integers(min_value=1, max_value=60),
            min_size=num_keys, max_size=num_keys, unique=True,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    stream = []
    for i, count in enumerate(counts):
        stream.extend([f"hk:{i}"] * count)
    random.Random(seed).shuffle(stream)
    by_count = sorted(
        range(num_keys), key=lambda i: counts[i], reverse=True
    )
    true_top_k = {f"hk:{i}" for i in by_count[:k]}
    return k, stream, true_top_k


@given(data=skewed_streams())
@settings(max_examples=120, deadline=None)
def test_elected_superset_of_true_top_k_at_double_capacity(data):
    k, stream, true_top_k = data
    topk = top_k(2 * k)
    for key in stream:
        topk.record(key)
    elected = set(topk._tracked)
    assert true_top_k <= elected, (true_top_k - elected, stream)


@given(data=skewed_streams())
@settings(max_examples=60, deadline=None)
def test_no_eviction_below_threshold(data):
    _, stream, _ = data
    topk = top_k(3)
    before = dict(topk._tracked)
    for key in stream:
        topk.record(key)
        after = dict(topk._tracked)
        evicted = set(before) - set(after)
        # At most one key leaves per record, and only for a newcomer whose
        # estimate reached the evicted key's (the tracked minimum).
        assert len(evicted) <= 1
        for victim in evicted:
            assert key in after
            assert after[key] >= before[victim], (key, victim)
        before = after


@given(data=skewed_streams())
@settings(max_examples=60, deadline=None)
def test_estimates_never_underestimate(data):
    _, stream, _ = data
    # deliberately collision-prone
    with mock.patch.multiple(hotkey, SKETCH_WIDTH=64, SKETCH_DEPTH=2):
        sketch = CountMinSketch()
    truth = {}
    for key in stream:
        sketch.add(key)
        truth[key] = truth.get(key, 0) + 1
    # add(key, 0) reads the estimate without counting.
    for key, count in truth.items():
        assert sketch.add(key, 0) >= count


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["store", "get", "invalidate"]),
            st.integers(min_value=0, max_value=5),   # key index
            st.floats(min_value=0.0, max_value=10.0),  # time offset
        ),
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_cache_never_serves_entries_older_than_ttl(ops):
    with mock.patch.object(hotkey, "HOT_CACHE_CAPACITY", 4):
        cache = HotKeyCache(ttl=1.0)
    stored_at = {}
    clock = 0.0
    for op, idx, dt in ops:
        clock += dt  # monotone clock, as every driver guarantees
        key = f"k:{idx}"
        if op == "store":
            cache.store(key, idx, now=clock)
            stored_at[key] = clock
        elif op == "invalidate":
            cache.invalidate(key)
            stored_at.pop(key, None)
        else:
            value = cache.get(key, now=clock)
            if value is not None:
                assert clock - stored_at[key] < cache.ttl
                assert value == idx
