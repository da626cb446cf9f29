"""Tests for cache items."""

import pytest

from repro.cache.item import DEFAULT_ITEM_SIZE, CacheItem


class TestCacheItem:
    def test_defaults(self):
        item = CacheItem("k", "v")
        assert item.size == DEFAULT_ITEM_SIZE == 4096
        assert item.expires_at is None

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            CacheItem("k", "v", size=-1)

    def test_expiry(self):
        item = CacheItem("k", "v", created_at=0.0, expires_at=5.0)
        assert not item.expired(4.9)
        assert item.expired(5.0)

    def test_no_expiry_never_expires(self):
        assert not CacheItem("k", "v").expired(1e12)
