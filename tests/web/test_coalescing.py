"""Tests for dog-pile (miss-storm) coalescing in the web tier."""

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.core.retrieval import RetrievalConfig
from repro.database.cluster import DatabaseCluster
from repro.sim.latency import Constant
from repro.web.frontend import FetchPath, WebServer

CFG = optimal_config(2000)


def build(coalesce: bool):
    cache = CacheCluster(
        ProteusRouter(4, ring_size=2 ** 20), capacity_bytes=4096 * 2000,
        bloom_config=CFG,
    )
    db = DatabaseCluster(2, service_model=Constant(0.1))
    web = WebServer(
        0, cache, db, cache_latency=Constant(0.001),
        web_overhead=Constant(0.001),
        config=RetrievalConfig(coalesce_misses=coalesce),
    )
    return cache, db, web


class TestCoalescing:
    def test_storm_on_one_key_costs_one_db_read(self):
        cache, db, web = build(coalesce=True)
        # 10 requests for the same cold key within the DB service time.
        results = [web.fetch("hot", now=i * 0.001) for i in range(10)]
        assert db.total_requests() == 1
        assert results[0].path is FetchPath.MISS_DB
        assert all(r.path is FetchPath.COALESCED for r in results[1:])
        assert all(r.value == results[0].value for r in results)

    def test_followers_wait_for_the_leader(self):
        cache, db, web = build(coalesce=True)
        leader = web.fetch("hot", now=0.0)
        follower = web.fetch("hot", now=0.001)
        # The follower cannot complete before the leader's DB fetch did.
        assert follower.completed >= leader.completed - 0.001
        assert follower.path is FetchPath.COALESCED

    def test_without_coalescing_every_miss_hits_db(self):
        cache, db, web = build(coalesce=False)
        for i in range(10):
            web.fetch("hot", now=i * 0.001)
        assert db.total_requests() == 10

    def test_after_leader_completes_normal_hits_resume(self):
        cache, db, web = build(coalesce=True)
        leader = web.fetch("hot", now=0.0)
        later = web.fetch("hot", now=leader.completed + 1.0)
        assert later.path is FetchPath.HIT_NEW

    def test_distinct_keys_do_not_coalesce(self):
        cache, db, web = build(coalesce=True)
        web.fetch("a", now=0.0)
        result = web.fetch("b", now=0.001)
        assert result.path is FetchPath.MISS_DB
        assert db.total_requests() == 2

    def test_coalesced_counts_in_stats(self):
        cache, db, web = build(coalesce=True)
        web.fetch("hot", now=0.0)
        web.fetch("hot", now=0.001)
        assert web.stats.counts[FetchPath.COALESCED] == 1
        # Coalesced requests are not database touches.
        assert web.stats.database_fraction == pytest.approx(0.5)
