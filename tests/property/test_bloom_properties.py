"""Property-based tests for the Bloom filter family."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import (
    counter_bits_enumerated,
    false_negative_bound,
    false_positive_rate,
    minimal_counters,
)
from repro.bloom.counting import CountingBloomFilter

keys = st.text(min_size=1, max_size=40)
key_sets = st.sets(keys, min_size=0, max_size=60)


@given(inserted=key_sets)
@settings(max_examples=60, deadline=None)
def test_plain_bloom_never_false_negative(inserted):
    bf = BloomFilter(4096, num_hashes=4)
    bf.update(inserted)
    assert all(k in bf for k in inserted)


@given(inserted=key_sets, removed_count=st.integers(min_value=0, max_value=60))
@settings(max_examples=60, deadline=None)
def test_counting_bloom_no_false_negative_without_overflow(
    inserted, removed_count
):
    # With 8-bit counters and <= 60 keys over 8192 counters, counters cannot
    # saturate, so the survivors must all still be present.
    cbf = CountingBloomFilter(8192, counter_bits=8, num_hashes=4)
    ordered = sorted(inserted)
    cbf.update(ordered)
    removed = ordered[:removed_count]
    for key in removed:
        cbf.remove(key)
    assert cbf.overflow_events == 0
    for key in ordered[removed_count:]:
        assert key in cbf


@given(inserted=key_sets)
@settings(max_examples=40, deadline=None)
def test_snapshot_agrees_with_counting_filter(inserted):
    cbf = CountingBloomFilter(4096, counter_bits=4, num_hashes=4)
    cbf.update(sorted(inserted))
    snapshot = cbf.snapshot()
    # Identical probe family: membership answers must match exactly.
    probes = sorted(inserted) + [f"probe-{i}" for i in range(30)]
    for key in probes:
        assert (key in cbf) == (key in snapshot)


@given(inserted=key_sets)
@settings(max_examples=40, deadline=None)
def test_insert_remove_all_returns_to_empty(inserted):
    cbf = CountingBloomFilter(8192, counter_bits=8, num_hashes=4)
    ordered = sorted(inserted)
    cbf.update(ordered)
    for key in ordered:
        cbf.remove(key)
    assert cbf.count == 0
    assert max(cbf._counters) == 0


@given(
    kappa=st.integers(min_value=10, max_value=100_000),
    h=st.integers(min_value=1, max_value=8),
    pp_exp=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_minimal_counters_always_meets_the_fp_bound(kappa, h, pp_exp):
    pp = 10.0 ** -pp_exp
    l = minimal_counters(kappa, h, pp)
    assert false_positive_rate(l, kappa, h) <= pp * (1 + 1e-9)


@given(
    kappa=st.integers(min_value=10, max_value=100_000),
    h=st.integers(min_value=1, max_value=8),
    pn_exp=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_enumerated_counter_bits_meet_the_fn_bound(kappa, h, pn_exp):
    pn = 10.0 ** -pn_exp
    l = minimal_counters(kappa, h, 1e-3)
    b = counter_bits_enumerated(l, kappa, h, pn)
    assert false_negative_bound(l, b, kappa, h) <= pn
