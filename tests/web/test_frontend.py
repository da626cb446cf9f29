"""Tests for Algorithm 2 (the WebServer data-retrieval path)."""

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.sim.latency import Constant
from repro.web.frontend import FetchPath, WebServer
from tests.resilience.test_admission import depth

CFG = optimal_config(2000)


# db_latency small by default: warm loops space requests 10 ms apart, and
# write-backs must complete (become visible) before later reads.
def build(n=4, active=None, db_latency=0.005):
    cache = CacheCluster(
        ProteusRouter(n, ring_size=2 ** 20),
        capacity_bytes=4096 * 2000,
        initial_active=active,
        bloom_config=CFG,
    )
    db = DatabaseCluster(3, service_model=Constant(db_latency))
    web = WebServer(
        0, cache, db, cache_latency=Constant(0.001), web_overhead=Constant(0.002)
    )
    return cache, db, web


class TestSteadyState:
    def test_first_fetch_misses_to_db_then_hits(self):
        cache, db, web = build()
        first = web.fetch("page:1", now=0.0)
        assert first.path is FetchPath.MISS_DB
        assert first.touched_database
        second = web.fetch("page:1", now=1.0)
        assert second.path is FetchPath.HIT_NEW
        assert not second.touched_database
        assert db.total_requests() == 1

    def test_hit_latency_is_cache_only(self):
        cache, db, web = build()
        web.fetch("page:1", now=0.0)
        result = web.fetch("page:1", now=1.0)
        # web overhead + one cache get
        assert result.latency == pytest.approx(0.003, abs=1e-6)

    def test_miss_latency_includes_db(self):
        cache, db, web = build(db_latency=0.05)
        result = web.fetch("page:1", now=0.0)
        # overhead 0.002 + get 0.001 + db 0.05 + set 0.001 (+pool setup 0.001x2)
        assert result.latency > 0.05

    def test_value_comes_from_authoritative_store(self):
        cache, db, web = build()
        result = web.fetch("page:X", now=0.0)
        assert result.value == db.shard_for("page:X").lookup("page:X")

    def test_stats_paths_counted(self):
        cache, db, web = build()
        web.fetch("a", 0.0)
        web.fetch("a", 1.0)
        assert web.stats.counts[FetchPath.MISS_DB] == 1
        assert web.stats.counts[FetchPath.HIT_NEW] == 1
        assert web.stats.database_fraction == 0.5


class TestScaleDownTransition:
    def warm(self, web, keys, start=0.0):
        t = start
        for key in keys:
            web.fetch(key, t)
            t += 0.01
        return t

    def test_remapped_keys_served_from_old_server(self):
        cache, db, web = build(4)
        keys = [f"page:{i}" for i in range(120)]
        t = self.warm(web, keys)
        db_before = db.total_requests()
        cache.scale_to(3, t, 60.0)
        paths = [web.fetch(k, t + 1.0).path for k in keys]
        assert db.total_requests() == db_before  # zero DB penalty
        assert paths.count(FetchPath.HIT_OLD) > 0
        assert FetchPath.MISS_DB not in paths

    def test_hot_migration_amortized_once(self):
        # Property 1 (Section IV-A): only the first request reaches the old
        # server; the second finds the data at the new owner.
        cache, db, web = build(4)
        keys = [f"page:{i}" for i in range(60)]
        t = self.warm(web, keys)
        cache.scale_to(3, t, 60.0)
        first = {k: web.fetch(k, t + 1.0).path for k in keys}
        second = {k: web.fetch(k, t + 2.0).path for k in keys}
        movers = [k for k, p in first.items() if p is FetchPath.HIT_OLD]
        assert movers
        assert all(second[k] is FetchPath.HIT_NEW for k in movers)

    def test_cold_keys_go_to_db_without_touching_old(self):
        cache, db, web = build(4)
        t = self.warm(web, [f"page:{i}" for i in range(30)])
        cache.scale_to(3, t, 60.0)
        result = web.fetch("page:never-seen", t + 1.0)
        assert result.path is FetchPath.MISS_DB

    def test_after_ttl_old_server_is_gone(self):
        cache, db, web = build(4)
        keys = [f"page:{i}" for i in range(60)]
        t = self.warm(web, keys)
        cache.scale_to(3, t, 30.0)
        # Touch nothing during the window; after expiry everything remapped
        # that was never pulled must come from the DB.
        late = t + 31.0
        cache.finalize_expired(late)
        paths = [web.fetch(k, late).path for k in keys]
        assert FetchPath.HIT_OLD not in paths
        assert paths.count(FetchPath.MISS_DB) > 0


class TestScaleUpTransition:
    def test_new_server_filled_from_ceding_owners(self):
        cache, db, web = build(4, active=3)
        keys = [f"page:{i}" for i in range(120)]
        t = 0.0
        for key in keys:
            web.fetch(key, t)
            t += 0.01
        db_before = db.total_requests()
        cache.scale_to(4, t, 60.0)
        paths = [web.fetch(k, t + 1.0).path for k in keys]
        assert paths.count(FetchPath.HIT_OLD) > 0
        assert FetchPath.MISS_DB not in paths
        assert db.total_requests() == db_before


class TestDigestFalsePositive:
    def test_false_positive_goes_to_db_and_is_counted(self):
        # Force a false positive: a digest that says yes for everything.
        cache, db, web = build(4)
        t = 0.0
        for i in range(50):
            web.fetch(f"page:{i}", t)
            t += 0.01
        transition = cache.scale_to(3, t, 60.0)
        # Replace server 3's digest with an all-ones filter.
        from repro.bloom.bloom import BloomFilter

        lying = BloomFilter(64, num_hashes=1)
        lying._bits = bytearray(b"\xff" * len(lying._bits))
        transition.digests[3] = lying
        # Pick a never-fetched key whose *old* owner is the drained server 3,
        # so Algorithm 2 actually consults the lying digest.
        key = next(
            f"page:fp-{i}" for i in range(10_000)
            if cache.router.route(f"page:fp-{i}", 4) == 3
        )
        result = web.fetch(key, t + 1.0)
        assert result.path is FetchPath.FALSE_POSITIVE_DB
        assert web.stats.counts[FetchPath.FALSE_POSITIVE_DB] == 1


class TestAdmissionControl:
    """DB-path admission in the sim tier (the live frontend's mirror)."""

    def build_admitted(self, max_depth=1, db_latency=0.05):
        from repro.resilience import VirtualQueueAdmission

        cache = CacheCluster(
            ProteusRouter(4, ring_size=2 ** 20),
            capacity_bytes=4096 * 2000,
            bloom_config=CFG,
        )
        db = DatabaseCluster(3, service_model=Constant(db_latency))
        web = WebServer(
            0, cache, db,
            cache_latency=Constant(0.001), web_overhead=Constant(0.002),
            admission=VirtualQueueAdmission(max_depth=max_depth),
        )
        return cache, db, web

    def test_excess_misses_are_shed_not_queued(self):
        cache, db, web = self.build_admitted(max_depth=1)
        first = web.fetch("page:a", now=0.0)
        assert first.path is FetchPath.MISS_DB
        # The admitted read is still outstanding on the virtual clock:
        # further DB-path work at the same instant is refused, unserved.
        shed = web.fetch("page:b", now=0.0)
        assert shed.path is FetchPath.SHED
        assert shed.value is None
        assert not shed.touched_database
        assert web.stats.shed == 1
        assert web.stats.total - web.stats.shed == web.stats.total - 1
        assert db.total_requests() == 1  # the shed never reached the DB

    def test_hits_are_never_consulted(self):
        cache, db, web = self.build_admitted(max_depth=1)
        web.fetch("page:a", now=0.0)
        # Saturate the virtual queue with a concurrent miss.
        web.fetch("page:b", now=1.0)
        # A hit at the same saturated instant still serves: it completes
        # before any database decision is made.
        hit = web.fetch("page:a", now=1.0)
        assert hit.path is FetchPath.HIT_NEW
        assert hit.value is not None

    def test_virtual_queue_drains_with_time(self):
        cache, db, web = self.build_admitted(max_depth=1, db_latency=0.05)
        web.fetch("page:a", now=0.0)
        assert depth(web.engine.admission, 0.01) == 1
        assert web.fetch("page:b", now=0.0).path is FetchPath.SHED
        # Past the admitted read's completion the slot frees up.
        assert depth(web.engine.admission, 1.0) == 0
        later = web.fetch("page:b", now=1.0)
        assert later.path is FetchPath.MISS_DB

    def test_no_admission_means_zero_behaviour_change(self):
        cache, db, web = build()
        assert web.engine.admission is None
        result = web.fetch("page:a", now=0.0)
        assert result.path is FetchPath.MISS_DB
        assert web.stats.shed == 0

    def test_batch_sheds_only_the_excess(self):
        cache, db, web = self.build_admitted(max_depth=2)
        keys = [f"page:{i}" for i in range(6)]
        results = web.fetch_many(keys, now=0.0)
        paths = [results[k].path for k in keys]
        assert paths.count(FetchPath.MISS_DB) == 2
        assert paths.count(FetchPath.SHED) == 4
        assert db.total_requests() == 2
        # shed keys carry no value and trigger no write-back
        for key in keys:
            if results[key].path is FetchPath.SHED:
                assert results[key].value is None
