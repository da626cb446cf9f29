"""Tests for database shards."""

import pytest

from repro.database.shard import DatabaseShard, synthesize_page
from repro.errors import ConfigurationError
from repro.sim.latency import Constant


class TestSynthesizePage:
    def test_deterministic(self):
        assert synthesize_page("Alan_Turing") == synthesize_page("Alan_Turing")

    def test_size(self):
        assert len(synthesize_page("k", size=4096)) == 4096
        assert len(synthesize_page("k", size=100)) == 100

    def test_distinct_keys_distinct_pages(self):
        assert synthesize_page("a") != synthesize_page("b")


class TestShard:
    def test_synthesized_lookup_always_found(self):
        shard = DatabaseShard(0)
        response = shard.get("anything", now=0.0)
        assert response.value == synthesize_page("anything")

    def test_dataset_overrides_synthesizer(self):
        shard = DatabaseShard(0)
        shard.put("k", b"explicit")
        assert shard.lookup("k") == b"explicit"

    def test_put_installs_data(self):
        shard = DatabaseShard(0)
        shard.put("k", b"v")
        assert shard.get("k", 0.0).value == b"v"

    def test_fifo_queueing_under_burst(self):
        shard = DatabaseShard(0, service_model=Constant(0.1))
        completions = [shard.get(f"k{i}", now=0.0).completion_time for i in range(5)]
        assert completions == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_queue_delay_reported(self):
        # The wait behind the backlog is in the completion time.
        shard = DatabaseShard(0, service_model=Constant(0.1))
        assert shard.get("a", now=0.0).completion_time == pytest.approx(0.1)
        assert shard.get("b", now=0.05).completion_time == pytest.approx(0.2)

    def test_idle_gap_resets_backlog(self):
        shard = DatabaseShard(0, service_model=Constant(0.1))
        shard.get("a", now=0.0)
        response = shard.get("b", now=10.0)
        assert response.completion_time == pytest.approx(10.1)

    def test_service_times_deterministic_per_seed(self):
        a = DatabaseShard(0, seed=5)
        b = DatabaseShard(0, seed=5)
        ta = [a.get(f"k{i}", 0.0).completion_time for i in range(10)]
        tb = [b.get(f"k{i}", 0.0).completion_time for i in range(10)]
        assert ta == tb
        assert DatabaseShard(0, seed=6).get("k0", 0.0).completion_time != ta[0]

    def test_rejects_negative_id(self):
        with pytest.raises(ConfigurationError):
            DatabaseShard(-1)
