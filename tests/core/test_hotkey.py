"""Unit tests for the hot-key armor primitives (repro.core.hotkey)."""

import pytest

from repro.core import hotkey
from repro.core.hotkey import (
    CountMinSketch,
    HotKeyArmor,
    HotKeyCache,
    TopKSketch,
)
from repro.errors import ConfigurationError


@pytest.fixture
def patch(monkeypatch):
    """Set :mod:`repro.core.hotkey` constants for one test."""
    def apply(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(hotkey, name, value)
    return apply


class TestCountMinSketch:
    def test_never_underestimates(self, patch):
        patch(SKETCH_WIDTH=64)
        sketch = CountMinSketch()
        truth = {}
        for i in range(200):
            key = f"k:{i % 37}"
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        # add(key, 0) reads the estimate without counting.
        for key, count in truth.items():
            assert sketch.add(key, 0) >= count

    def test_exact_when_uncontended(self, patch):
        patch(SKETCH_WIDTH=4096)
        sketch = CountMinSketch()
        for _ in range(50):
            sketch.add("hot")
        assert sketch.add("hot", 0) == 50
        assert sketch.add("never-seen", 0) == 0

    def test_add_returns_updated_estimate(self):
        sketch = CountMinSketch()
        assert sketch.add("a") == 1
        assert sketch.add("a", count=4) == 5

    def test_memory_bound_is_geometry_only(self, patch):
        patch(SKETCH_WIDTH=128)
        sketch = CountMinSketch()
        for i in range(10_000):
            sketch.add(f"k:{i}")
        assert [len(row) for row in sketch._rows] == [128] * 4


class TestTopKSketch:
    def test_fills_to_capacity_then_gates_on_threshold(self, patch):
        patch(TOP_K=2, SKETCH_WIDTH=4096)
        topk = TopKSketch()
        assert topk.record("a")  # capacity not reached: elected outright
        assert topk.record("b")
        topk.record("a")
        topk.record("b")  # both tracked at estimate 2
        assert not topk.record("c")  # estimate 1 < threshold 2: rejected
        assert not topk.is_hot("c")
        assert topk.record("c")  # estimate 2 >= threshold 2: displaces
        assert topk.is_hot("c")
        assert len(topk) == 2

    def test_heavy_key_always_elected(self, patch):
        patch(TOP_K=4, SKETCH_WIDTH=4096)
        topk = TopKSketch()
        # Fill with tail keys, then hammer one head key.
        for i in range(4):
            topk.record(f"tail:{i}")
        for _ in range(50):
            topk.record("head")
        assert topk.is_hot("head")
        assert topk._tracked["head"] >= 50

    def test_tail_churn_cannot_displace_head(self, patch):
        patch(TOP_K=2, SKETCH_WIDTH=4096)
        topk = TopKSketch()
        for _ in range(100):
            topk.record("head")
        for i in range(500):
            topk.record(f"tail:{i}")  # each seen once: estimate 1 << 100
        assert topk.is_hot("head")

    def test_threshold_tracks_minimum(self, patch):
        patch(TOP_K=2, SKETCH_WIDTH=4096)
        topk = TopKSketch()
        assert topk.threshold() == 0
        topk.record("a")
        topk.record("b")
        topk.record("b")
        assert topk.threshold() == 1  # "a" is the minimum

    def test_len_and_contains(self, patch):
        patch(TOP_K=8, SKETCH_DEPTH=2)
        topk = TopKSketch()
        topk.record("x")
        assert len(topk) == 1 and "x" in topk and "y" not in topk


class TestHotKeyCache:
    def test_store_get_roundtrip(self, patch):
        patch(HOT_CACHE_CAPACITY=4)
        cache = HotKeyCache(ttl=1.0)
        cache.store("k", "v", now=0.0)
        assert cache.get("k", now=0.5) == "v"

    def test_ttl_expiry_is_strict(self, patch):
        patch(HOT_CACHE_CAPACITY=4)
        cache = HotKeyCache(ttl=1.0)
        cache.store("k", "v", now=0.0)
        assert cache.get("k", now=1.0) is None  # now - stored >= ttl
        assert "k" not in cache  # the expired entry is dropped

    def test_store_refreshes_staleness_window(self, patch):
        patch(HOT_CACHE_CAPACITY=4)
        cache = HotKeyCache(ttl=1.0)
        cache.store("k", "v1", now=0.0)
        cache.store("k", "v2", now=0.9)
        assert cache.get("k", now=1.5) == "v2"

    def test_lru_eviction_prefers_cold_entries(self, patch):
        patch(HOT_CACHE_CAPACITY=2)
        cache = HotKeyCache(ttl=10.0)
        cache.store("a", 1, now=0.0)
        cache.store("b", 2, now=0.0)
        assert cache.get("a", now=0.1) == 1  # touch "a": "b" is now LRU
        cache.store("c", 3, now=0.2)
        assert "b" not in cache
        assert cache.get("a", now=0.3) == 1
        assert cache.get("c", now=0.3) == 3

    def test_invalidate(self, patch):
        patch(HOT_CACHE_CAPACITY=2)
        cache = HotKeyCache(ttl=10.0)
        cache.store("a", 1, now=0.0)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a", now=0.1) is None

    def test_invalid_args_raise(self):
        with pytest.raises(ConfigurationError):
            HotKeyCache(ttl=0.0)


class TestHotKeyArmor:
    def test_cold_key_never_served_locally(self):
        armor = HotKeyArmor(ttl=1.0)
        for occupant in range(armor.sketch.capacity):  # every tracked slot
            for _ in range(3):
                armor.sketch.record(f"occupant:{occupant}")
        # A once-seen key is not elected: never served, admit refused.
        assert armor.lookup("cold", now=0.0) is None
        assert not armor.admit("cold", "v", now=0.0)
        assert armor.lookup("occupant:0", now=0.0) is None  # hot but empty

    def test_hot_key_admit_then_lookup(self):
        armor = HotKeyArmor(ttl=1.0)
        assert armor.lookup("k", now=0.0) is None  # first sight: elected, empty
        assert armor.admit("k", "v", now=0.0)
        assert armor.lookup("k", now=0.5) == "v"
        assert armor.lookup("k", now=2.0) is None  # TTL-bounded staleness

    def test_invalidate_drops_local_copy(self):
        armor = HotKeyArmor(ttl=10.0)
        armor.sketch.record("k")
        armor.admit("k", "v", now=0.0)
        assert armor.invalidate("k")
        assert armor.lookup("k", now=0.1) is None
