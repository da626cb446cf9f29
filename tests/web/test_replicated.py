"""Tests for the replicated read/write path (Section III-E operational):
the one :class:`WebServer` over a router with ``replicas`` rings."""

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.cache.server import PowerState
from repro.core.retrieval import (
    SERVER_UNAVAILABLE,
    FetchPath,
    ProbeCacheMulti,
)
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

CFG = optimal_config(2000)


def build(n=6, replicas=2, active=None):
    cache = CacheCluster(
        ProteusRouter(n, 2 ** 24, replicas=replicas),
        capacity_bytes=4096 * 2000,
        initial_active=active,
        bloom_config=CFG,
    )
    # Fast constant-latency DB so warm-phase write-backs complete before the
    # post-crash re-reads (items are invisible before their write time).
    db = DatabaseCluster(3, service_model=Constant(0.002))
    return cache, db, WebServer(0, cache, db)


def owners(cache, key, n=6):
    """The key's read plan: its distinct replica owners, ring order."""
    return list(cache.router.read_plans([key], n)[0])


class TestWrites:
    # A put is charged like any write: one cache_latency sample (1 ms by
    # default), so its items are visible from then on.
    def test_put_reaches_all_distinct_replicas(self):
        cache, db, web = build(replicas=3)
        written = web.put("page:1", b"v", now=0.0)
        assert written == owners(cache, "page:1")
        assert 1 <= len(written) <= 3
        for server_id in written:
            assert cache.server(server_id).get("page:1", 0.001) == b"v"

    def test_put_many_is_put_per_pair_last_value_wins(self):
        cache, db, web = build(replicas=2)
        cache.fail_server(1, now=0.0)  # a dead owner takes no write
        pairs = [(f"page:{i}", f"v{i}") for i in range(30)]
        written = web.put_many(pairs + [("page:0", "last")], now=1.0)
        _, _, single = build(replicas=2)
        single.cache.fail_server(1, now=0.0)
        assert written == {
            key: single.put(key, value, now=1.0) for key, value in pairs
        }
        assert all(1 not in servers for servers in written.values())
        assert any(len(servers) == 2 for servers in written.values())
        for server_id in written["page:0"]:
            assert cache.server(server_id).get("page:0", 1.001) == "last"


class TestWriteCoherence:
    """After a put the tier holds one version: no copy the put did not
    write survives for a transition or a later resize to serve."""

    @staticmethod
    def moved_key(cache, n_old, n_new):
        """A key whose read plans at *n_old* and *n_new* share no owner."""
        return next(
            key for key in (f"page:{i}" for i in range(500))
            if not set(owners(cache, key, n_old)) & set(owners(cache, key, n_new))
        )

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_put_mid_transition_then_eviction_reads_the_new_value(
        self, replicas
    ):
        cache, db, web = build(replicas=replicas, active=2)
        key = self.moved_key(cache, 2, 3)
        web.fetch(key, 0.0)  # v1 installed at the 2-server owners
        cache.scale_to(3, 1.0, 60.0)
        db.put(key, "v2")
        web.put(key, "v2", 2.0)
        for owner in owners(cache, key, 3):  # LRU, or a crash and repair
            cache.server(owner).delete(key, 3.0)
        first = web.fetch(key, 4.0)
        assert first.value == "v2" and first.path is not FetchPath.HIT_OLD
        assert web.fetch(key, 5.0).value == "v2"

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_put_after_a_closed_window_survives_a_resize_back(self, replicas):
        cache, db, web = build(replicas=replicas, active=2)
        key = self.moved_key(cache, 2, 3)
        web.fetch(key, 0.0)
        cache.scale_to(3, 1.0, 60.0)
        cache.finalize_expired(100.0)  # the window closes; items never do
        db.put(key, "v2")
        web.put(key, "v2", 100.0)
        cache.scale_to(2, 101.0, 60.0)
        result = web.fetch(key, 102.0)
        assert result.value == "v2", result.path


class TestReadsAndFailover:
    def test_fetch_miss_populates_all_replicas(self):
        cache, db, web = build(replicas=2)
        result = web.fetch("page:x", now=0.0)
        assert result.touched_database
        for server_id in owners(cache, "page:x"):
            assert cache.server(server_id).get("page:x", 1.0) is not None

    def test_fetch_hit_from_primary(self):
        cache, db, web = build(replicas=2)
        web.fetch("page:x", now=0.0)
        result = web.fetch("page:x", now=1.0)
        assert not result.touched_database
        assert result.served_by == cache.router.route("page:x", 6)
        assert result.path is FetchPath.HIT_NEW and result.probes == 1
        assert web.stats.failovers == 0

    def test_failover_serves_from_replica_after_crash(self):
        cache, db, web = build(replicas=2)
        keys = [f"page:{i}" for i in range(150)]
        t = 0.0
        for key in keys:
            web.fetch(key, t)
            t += 0.01
        db_before = db.total_requests()
        cache.fail_server(0, now=t)  # crash the first server
        failed_over = 0
        db_fallback = 0
        for key in keys:
            result = web.fetch(key, t + 1.0)
            assert result.value is not None
            if result.served_by is not None and (
                cache.router.route(key, 6) == 0
            ):
                failed_over += 1
            if result.touched_database:
                db_fallback += 1
        # Keys whose primary was server 0 are served from their replica...
        assert failed_over > 0
        assert web.stats.failovers == failed_over
        # ...and only replica-conflict keys (both copies on server 0) fall
        # through to the DB: a small fraction (Eq. 3 at n=6 predicts ~1/6
        # of server-0 keys, i.e. a few percent overall).
        assert db_fallback < len(keys) * 0.1
        assert db.total_requests() - db_before == db_fallback

    def test_crashed_probe_then_healthy_probe_costs_two_cache_samples(self):
        cache, db, _ = build(replicas=2)
        key = next(
            k for k in (f"page:{i}" for i in range(100))
            if len(owners(cache, k)) == 2
        )
        dead, alive = owners(cache, key)
        cache.server(alive).set(key, b"v", now=0.0)
        cache.fail_server(dead, now=0.0)
        # A web server that has never talked to either owner: the virtual
        # clock is charged the two round trips and nothing else.
        web = WebServer(1, cache, db, cache_latency=Constant(0.003))
        answer, clock = web._execute(ProbeCacheMulti(dead, (key,)), 1.0)
        assert answer is SERVER_UNAVAILABLE
        answer, clock = web._execute(ProbeCacheMulti(alive, (key,)), clock)
        assert answer == {key: b"v"}
        assert clock == pytest.approx(1.0 + 2 * 0.003, abs=1e-12)

    def test_without_replication_every_crashed_key_hits_db(self):
        cache, db, web = build(replicas=1)
        keys = [f"page:{i}" for i in range(150)]
        t = 0.0
        for key in keys:
            web.fetch(key, t)
            t += 0.01
        cache.fail_server(0, now=t)
        db_before = db.total_requests()
        primaries = sum(1 for k in keys if cache.router.route(k, 6) == 0)
        for key in keys:
            web.fetch(key, t + 1.0)
        assert db.total_requests() - db_before == primaries
        assert primaries > 0

    def test_all_replicas_crashed_still_serves_via_db(self):
        cache, db, web = build(replicas=2)
        web.fetch("page:q", now=0.0)
        for owner in owners(cache, "page:q"):
            cache.fail_server(owner, now=1.0)
        result = web.fetch("page:q", now=2.0)
        assert result.touched_database
        assert result.value is not None
        assert result.served_by is None and result.probes == 0
        assert result.path is FetchPath.DEGRADED_DB

    def test_scale_down_serves_moved_replicated_keys_from_old_owners(self):
        # Algorithm 2's digest path applies per ring: during a drain a key
        # whose every owner moved is pulled from a ceded owner, not the DB.
        cache, db, web = build(replicas=2)
        keys = [f"page:{i}" for i in range(300)]
        for i, key in enumerate(keys):
            web.fetch(key, 0.01 * i)
        cache.scale_to(4, 10.0, 60.0)
        moved = [
            key for key in keys
            if not set(owners(cache, key, 4)) & set(owners(cache, key, 6))
        ]
        assert moved
        db_before = db.total_requests()
        for key in moved:
            result = web.fetch(key, 11.0)
            assert result.path is FetchPath.HIT_OLD, key
            assert result.served_by in owners(cache, key, 6)
            assert result.old_server == cache.router.route(key, 6)
            assert not result.failover
        assert db.total_requests() == db_before
        # Migrated on demand: the second read is a new-owner hit.
        assert all(
            web.fetch(key, 12.0).path is FetchPath.HIT_NEW for key in moved
        )


class TestClusterFailureApi:
    def test_fail_and_repair(self):
        cache, db, web = build()
        cache.fail_server(2, now=0.0)
        assert cache.failed_servers() == frozenset({2})
        assert cache.server(2).state is PowerState.OFF
        cache.repair_server(2, now=1.0)
        assert cache.failed_servers() == frozenset()
        assert cache.server(2).state is PowerState.ON
        assert len(cache.server(2).store) == 0  # came back cold

    def test_repair_of_inactive_server_stays_off(self):
        cache, db, web = build(active=3)
        cache.fail_server(5, now=0.0)  # already OFF: no-op
        assert cache.failed_servers() == frozenset()
        cache.fail_server(2, now=0.0)
        cache.scale_to(2, 1.0, 60.0)  # server 2 now outside the active prefix
        cache.repair_server(2, now=2.0)
        assert cache.server(2).state is PowerState.OFF

    def test_failing_twice_is_idempotent(self):
        cache, db, web = build()
        cache.fail_server(1, now=0.0)
        cache.fail_server(1, now=1.0)
        assert cache.failed_servers() == frozenset({1})
