"""Tests for the counting Bloom filter (the Proteus digest)."""

import pytest

from repro.bloom.counting import CountingBloomFilter
from repro.errors import DigestError
from tests.conftest import make_keys


class TestInsertDelete:
    def test_insert_then_contains(self):
        cbf = CountingBloomFilter(4096, counter_bits=4, num_hashes=4)
        cbf.add("k1")
        assert "k1" in cbf

    def test_delete_removes_membership(self):
        cbf = CountingBloomFilter(4096)
        cbf.add("k1")
        cbf.remove("k1")
        assert "k1" not in cbf

    def test_double_insert_needs_double_delete(self):
        cbf = CountingBloomFilter(4096)
        cbf.add("k1")
        cbf.add("k1")
        cbf.remove("k1")
        assert "k1" in cbf  # still one count left
        cbf.remove("k1")
        assert "k1" not in cbf

    def test_count_tracks_net_inserts(self):
        cbf = CountingBloomFilter(4096)
        keys = make_keys(50)
        cbf.update(keys)
        assert cbf.count == 50
        cbf.remove(keys[0])
        assert cbf.count == 49

    def test_deleting_absent_key_raises_in_strict_mode(self):
        cbf = CountingBloomFilter(4096, strict=True)
        with pytest.raises(DigestError):
            cbf.remove("never-inserted")

    def test_lenient_mode_clamps_at_zero(self):
        cbf = CountingBloomFilter(4096, strict=False)
        cbf.remove("never-inserted")  # no exception
        assert cbf.count == 0

    def test_no_false_negatives_without_overflow(self):
        # b=8 counters cannot overflow with 300 keys spread over 8192 slots.
        cbf = CountingBloomFilter(8192, counter_bits=8, num_hashes=4)
        keys = make_keys(300)
        cbf.update(keys)
        for key in keys[:150]:
            cbf.remove(key)
        assert all(k in cbf for k in keys[150:])
        assert cbf.overflow_events == 0


class TestOverflow:
    def test_saturation_is_recorded(self):
        cbf = CountingBloomFilter(16, counter_bits=1, num_hashes=2)
        for key in make_keys(64):
            cbf.add(key)
        assert cbf.overflow_events > 0
        assert max(cbf._counters) == 1

    def test_overflow_then_delete_causes_false_negative(self):
        # The Section IV-B failure mode, provoked deliberately: 1-bit
        # counters saturate, deletions then drive shared counters to zero,
        # and a still-present key vanishes from the digest.
        cbf = CountingBloomFilter(8, counter_bits=1, num_hashes=4, strict=False)
        keys = make_keys(40)
        cbf.update(keys)
        for key in keys[1:]:
            cbf.remove(key)
        assert keys[0] not in cbf  # false negative

    def test_strict_mode_tolerates_the_false_negative_after_overflow(self):
        # Once a counter has saturated, a zero counter under a resident
        # key is the tolerated false negative: strict removal clamps until
        # a clear makes the counters exact again.
        cbf = CountingBloomFilter(8, counter_bits=1, num_hashes=4)
        keys = make_keys(40)
        cbf.update(keys)
        assert cbf.overflow_events > 0
        for key in keys:
            cbf.remove(key)
        assert cbf.count == 0 and not any(cbf._counters)
        cbf.clear()
        with pytest.raises(DigestError):
            cbf.remove(keys[0])

    def test_wide_counters_do_not_saturate(self):
        cbf = CountingBloomFilter(64, counter_bits=12, num_hashes=2)
        for _ in range(100):
            cbf.add("same-key")
        assert cbf.overflow_events == 0
        # If the key's two probes collide, one counter absorbs both
        # increments per add; either way nothing saturates below 4096.
        assert max(cbf._counters) in (100, 200)


class TestSnapshotAndMaintenance:
    def test_snapshot_preserves_membership(self):
        cbf = CountingBloomFilter(4096, num_hashes=4)
        keys = make_keys(100)
        cbf.update(keys)
        snap = cbf.snapshot()
        assert all(k in snap for k in keys)

    def test_snapshot_is_frozen(self):
        cbf = CountingBloomFilter(4096)
        cbf.add("before")
        snap = cbf.snapshot()
        cbf.add("after")
        assert "before" in snap
        assert "after" not in snap

    def test_snapshot_smaller_than_counters(self):
        cbf = CountingBloomFilter(4096, counter_bits=4)
        assert cbf.snapshot().size_bytes() < cbf.size_bytes()

    def test_clear_resets_everything(self):
        cbf = CountingBloomFilter(1024)
        cbf.update(make_keys(20))
        cbf.clear()
        assert cbf.count == 0
        assert max(cbf._counters) == 0
        assert all(k not in cbf for k in make_keys(20))

    def test_size_bytes(self):
        assert CountingBloomFilter(1000, counter_bits=4).size_bytes() == 500
        assert CountingBloomFilter(1000, counter_bits=3).size_bytes() == 375

    def test_wide_counter_storage_path(self):
        # counter_bits > 8 switches to a list-backed array; same semantics.
        cbf = CountingBloomFilter(256, counter_bits=12, num_hashes=3)
        keys = make_keys(30)
        cbf.update(keys)
        assert all(k in cbf for k in keys)
        for k in keys:
            cbf.remove(k)
        assert all(k not in cbf for k in keys)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0)
        with pytest.raises(ValueError):
            CountingBloomFilter(10, counter_bits=0)
