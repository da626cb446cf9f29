"""Tests for eviction policies."""

import pytest

from repro.cache.eviction import LRUPolicy, NoEvictionPolicy
from repro.errors import CapacityError


class TestLRU:
    def test_victim_is_least_recent(self):
        policy = LRUPolicy()
        for key in ("a", "b", "c"):
            policy.on_link(key)
        assert policy.victim() == "a"

    def test_access_refreshes(self):
        policy = LRUPolicy()
        for key in ("a", "b", "c"):
            policy.on_link(key)
        policy.on_access("a")
        assert policy.victim() == "b"

    def test_unlink_removes(self):
        policy = LRUPolicy()
        policy.on_link("a")
        policy.on_link("b")
        policy.on_unlink("a")
        assert policy.victim() == "b"

    def test_empty_victim_raises(self):
        with pytest.raises(CapacityError):
            LRUPolicy().victim()

    def test_reset(self):
        policy = LRUPolicy()
        policy.on_link("a")
        policy.reset()
        with pytest.raises(CapacityError):
            policy.victim()


class TestNoEviction:
    def test_always_refuses(self):
        policy = NoEvictionPolicy()
        policy.on_link("a")
        with pytest.raises(CapacityError):
            policy.victim()
