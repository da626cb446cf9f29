"""Tests for the bounded key-value store, its LRU order and its digest."""

import pytest

from repro.bloom.counting import CountingBloomFilter
from repro.cache.store import KeyValueStore
from repro.errors import CapacityError, ConfigurationError


def digested_store(capacity_bytes=None):
    """A store keeping a roomy strict digest, and that digest."""
    digest = CountingBloomFilter(8192, counter_bits=8, num_hashes=4)
    return KeyValueStore(capacity_bytes, digest), digest


class TestBasicOps:
    def test_set_get_roundtrip(self):
        store = KeyValueStore()
        store.set("k", "v", now=1.0)
        assert store.get("k", now=2.0) == "v"

    def test_get_missing_returns_none(self):
        store = KeyValueStore()
        assert store.get("nope") is None
        assert store.stats.misses == 1

    def test_contains_and_len(self):
        store = KeyValueStore()
        store.set("a", 1)
        assert "a" in store and "b" not in store
        assert len(store) == 1

    def test_delete(self):
        store = KeyValueStore()
        store.set("k", "v")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_overwrite_replaces_value_and_accounting(self):
        store = KeyValueStore()
        store.set("k", "v1", size=100)
        store.set("k", "v2", size=300)
        assert store.get("k") == "v2"
        assert store.used_bytes == 300
        assert len(store) == 1

    def test_peek_does_not_touch(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0)
        before_gets = store.stats.gets
        item = store.peek("k")
        assert item.value == "v"
        assert store.stats.gets == before_gets

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            KeyValueStore(capacity_bytes=0)


class TestExpiry:
    def test_lazy_expiry_on_get(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=10.0)
        assert store.get("k", now=5.0) == "v"
        assert store.get("k", now=10.0) is None
        assert store.stats.expirations == 1

    def test_delete_of_expired_reports_absent(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=1.0)
        assert store.delete("k", now=2.0) is False
        assert store.stats.expirations == 1

    def test_purge_expired(self):
        store = KeyValueStore()
        for i in range(5):
            store.set(f"k{i}", i, now=0.0, ttl=10.0)
        store.set("fresh", 1, now=0.0)
        assert store.purge_expired(now=11.0) == 5
        assert len(store) == 1


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        store = KeyValueStore(capacity_bytes=300)
        store.set("a", 1, size=100, now=0.0)
        store.set("b", 2, size=100, now=1.0)
        store.set("c", 3, size=100, now=2.0)
        store.get("a", now=3.0)  # refresh a; b becomes LRU
        store.set("d", 4, size=100, now=4.0)
        assert "b" not in store
        assert all(k in store for k in ("a", "c", "d"))
        assert store.stats.evictions == 1

    def test_oversized_item_rejected(self):
        store = KeyValueStore(capacity_bytes=100)
        with pytest.raises(CapacityError):
            store.set("big", b"x", size=101)

    def test_expired_purged_before_eviction(self):
        store = KeyValueStore(capacity_bytes=200)
        store.set("stale", 1, size=100, now=0.0, ttl=5.0)
        store.set("live", 2, size=100, now=1.0)
        store.set("new", 3, size=100, now=10.0)  # stale is expired now
        assert "live" in store  # survived because stale was purged instead
        assert store.stats.expirations == 1
        assert store.stats.evictions == 0

    def test_used_bytes_tracks(self):
        store = KeyValueStore(capacity_bytes=1000)
        store.set("a", 1, size=400)
        store.set("b", 2, size=400)
        assert store.used_bytes == 800
        store.delete("a")
        assert store.used_bytes == 400


class TestHooks:
    """The link and unlink points: the store adds a key to the digest
    where it links an item and removes it where it unlinks one, whatever
    the reason."""

    def test_link_unlink_fire_once_per_item(self):
        store, digest = digested_store()
        store.set("k", "v")
        assert "k" in digest and digest.count == 1
        store.delete("k")
        assert "k" not in digest and digest.count == 0

    def test_overwrite_fires_unlink_then_link(self):
        store, digest = digested_store()
        store.set("k", "v1")
        store.set("k", "v2")
        assert "k" in digest and digest.count == 1

    def test_eviction_reason(self):
        store, digest = digested_store(capacity_bytes=100)
        store.set("a", 1, size=100)
        store.set("b", 2, size=100)
        assert "a" not in digest and "b" in digest
        assert digest.count == 1

    def test_expiry_reason(self):
        store, digest = digested_store()
        store.set("k", "v", now=0.0, ttl=1.0)
        assert store.get("k", now=2.0) is None
        assert "k" not in digest and digest.count == 0

    def test_flush_reason_and_reset(self):
        store, digest = digested_store()
        store.set("a", 1)
        store.set("b", 2, ttl=5.0)
        assert store.flush() == 2
        assert len(store) == 0
        assert store.used_bytes == 0
        assert digest.count == 0
        assert not any(digest._counters)
        store.set("a", 3)  # usable again, and the index forgot "b"
        assert store.purge_expired(10.0) == 0
        assert list(store._items) == ["a"] and digest.count == 1


class TestStatsIntegration:
    def test_hit_ratio(self):
        store = KeyValueStore()
        store.set("k", "v")
        store.get("k")
        store.get("absent")
        assert store.stats.hit_ratio == 0.5

    def test_requests_counts_all_ops(self):
        store = KeyValueStore()
        store.set("k", "v")
        store.get("k")
        store.delete("k")
        assert store.stats.requests == 3
