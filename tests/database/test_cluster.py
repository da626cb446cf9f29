"""Tests for the sharded database tier."""

import collections

import pytest

from repro.database.cluster import DEFAULT_NUM_SHARDS, DatabaseCluster
from repro.errors import ConfigurationError
from repro.sim.latency import Constant
from tests.conftest import make_keys


class TestSharding:
    def test_default_is_seven_shards(self):
        assert DEFAULT_NUM_SHARDS == 7
        assert len(DatabaseCluster().shards) == 7

    def test_shard_routing_is_deterministic(self):
        db = DatabaseCluster(5)
        assert db.shard_for("k") is db.shard_for("k")

    def test_keys_spread_over_shards(self):
        db = DatabaseCluster(7)
        counts = collections.Counter(
            db.shards.index(db.shard_for(k)) for k in make_keys(7000)
        )
        assert set(counts) == set(range(7))
        assert min(counts.values()) / max(counts.values()) > 0.8

    def test_put_and_get_route_to_same_shard(self):
        db = DatabaseCluster(4)
        db.put("k", b"v")
        assert db.get("k", 0.0).value == b"v"

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            DatabaseCluster(0)


class TestPressureMetrics:
    def test_total_requests(self):
        db = DatabaseCluster(3)
        for key in make_keys(10):
            db.get(key, 0.0)
        assert db.total_requests() == 10

    def test_max_queue_delay_under_burst(self):
        db = DatabaseCluster(2, service_model=Constant(0.1))
        completions = [
            db.get(key, now=0.0).completion_time for key in make_keys(20)
        ]
        # The busier shard's last request queued > 0.5 s before its service.
        assert max(completions) - 0.1 > 0.5
