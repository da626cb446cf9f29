"""Tests for the cache server (digest consistency + power lifecycle)."""

import pytest

from repro.bloom.config import optimal_config
from repro.cache.server import CacheServer, PowerState
from repro.errors import CacheError, ConfigurationError
from tests.conftest import make_keys

CFG = optimal_config(2000)


def server(**kwargs):
    kwargs.setdefault("bloom_config", CFG)
    return CacheServer(0, **kwargs)


class TestDigestConsistency:
    def test_digest_tracks_sets(self):
        srv = server()
        srv.set("k", "v")
        assert "k" in srv.digest

    def test_digest_tracks_deletes(self):
        srv = server()
        srv.set("k", "v")
        srv.delete("k")
        assert "k" not in srv.digest

    def test_digest_tracks_evictions(self):
        srv = server(capacity_bytes=4096 * 2)
        srv.set("a", 1)
        srv.set("b", 2)
        srv.set("c", 3)  # evicts a
        assert "a" not in srv.digest
        assert "b" in srv.digest and "c" in srv.digest

    def test_digest_tracks_expiry(self):
        srv = server()
        srv.set("k", "v", now=0.0, ttl=5.0)
        srv.get_many(["k"], now=6.0)  # lazy expire
        assert "k" not in srv.digest

    def test_digest_consistent_after_churn(self):
        srv = server(capacity_bytes=4096 * 50)
        keys = make_keys(300)
        for i, key in enumerate(keys):
            srv.set(key, i, now=float(i))
        # exactly the store's contents are in the digest
        in_store = set(srv.store._items)
        assert all(k in srv.digest for k in in_store)
        assert srv.digest.count == len(in_store)

    def test_snapshot_digest_roundtrip(self):
        srv = server()
        srv.set("hot", 1)
        snap = srv.snapshot_digest()
        assert "hot" in snap
        srv.set("later", 2)
        assert "later" not in snap  # snapshot frozen at broadcast time


class TestPowerLifecycle:
    def test_initially_on(self):
        assert server().state is PowerState.ON

    def test_initially_off(self):
        srv = CacheServer(1, bloom_config=CFG, initially_on=False)
        assert srv.state is PowerState.OFF

    def test_off_server_refuses_requests(self):
        srv = CacheServer(1, bloom_config=CFG, initially_on=False)
        with pytest.raises(CacheError):
            srv.get_many(["k"])
        with pytest.raises(CacheError):
            srv.set("k", 1)
        with pytest.raises(CacheError):
            srv.delete("k")

    def test_power_off_loses_data_and_digest(self):
        srv = server()
        srv.set("k", "v")
        srv.power_off(10.0)
        assert srv.state is PowerState.OFF
        srv.power_on(20.0)
        assert srv.get_many(["k"]).get("k") is None  # cold start
        assert "k" not in srv.digest

    def test_draining_still_serves(self):
        srv = server()
        srv.set("k", "v")
        srv.begin_drain()
        assert srv.state is PowerState.DRAINING
        assert srv.state.serves_requests
        assert srv.get_many(["k"]).get("k") == "v"

    def test_drain_requires_on(self):
        srv = CacheServer(1, bloom_config=CFG, initially_on=False)
        with pytest.raises(CacheError):
            srv.begin_drain()

    def test_power_on_when_on_is_noop(self):
        srv = server()
        srv.set("k", "v")
        srv.power_on()
        assert srv.get_many(["k"]).get("k") == "v"  # no flush

    def test_rejects_negative_id(self):
        with pytest.raises(ConfigurationError):
            CacheServer(-1, bloom_config=CFG)


class TestDefaults:
    def test_default_bloom_sized_from_capacity(self):
        srv = CacheServer(0, capacity_bytes=4096 * 5000)
        assert srv.digest.num_counters == optimal_config(5000).num_counters

    def test_stats_accessible(self):
        srv = server()
        srv.set("k", 1)
        srv.get_many(["k"])
        assert srv.stats.hits == 1
