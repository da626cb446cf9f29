"""LRU eviction: the store's item dict is its recency order."""

import pytest

from repro.cache.store import KeyValueStore
from repro.errors import CapacityError


def abc():
    """A full 3-item store, linked a, b, c."""
    store = KeyValueStore(capacity_bytes=300)
    for now, key in enumerate("abc"):
        store.set(key, key, size=100, now=float(now))
    return store


class TestLRU:
    def test_victim_is_least_recent(self):
        store = abc()
        assert list(store._items) == ["a", "b", "c"]
        store.set("d", "d", size=100, now=3.0)
        assert list(store._items) == ["b", "c", "d"]
        assert store.stats.evictions == 1

    def test_access_refreshes(self):
        store = abc()
        assert store.get_many(["a"], now=3.0).keys() == {"a"}
        assert list(store._items) == ["b", "c", "a"]
        store.set("d", "d", size=100, now=4.0)
        assert list(store._items) == ["c", "a", "d"]

    def test_overwrite_refreshes(self):
        store = abc()
        store.set("a", "A", size=100, now=3.0)
        assert list(store._items) == ["b", "c", "a"]
        store.set("d", "d", size=100, now=4.0)
        assert list(store._items) == ["c", "a", "d"]

    def test_unlink_removes(self):
        store = abc()
        store.delete("a")
        store.set("d", "d", size=100, now=3.0)
        assert list(store._items) == ["b", "c", "d"]
        assert store.stats.evictions == 0

    def test_empty_victim_raises(self):
        # An item that would need more than an empty store is refused up
        # front: eviction never runs out of victims.
        store = abc()
        with pytest.raises(CapacityError):
            store.set("big", "x", size=301, now=3.0)
        assert list(store._items) == ["a", "b", "c"]

    def test_reset(self):
        store = abc()
        store.flush()
        for now, key in enumerate("xyz"):
            store.set(key, key, size=100, now=float(now))
        store.set("w", "w", size=100, now=3.0)
        assert list(store._items) == ["y", "z", "w"]
