"""Tests for push-based background migration."""

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.errors import ConfigurationError
from repro.provisioning.migrator import BackgroundMigrator
from repro.sim.events import EventLoop
from repro.sim.latency import Constant
from repro.web.frontend import FetchPath, WebServer

CFG = optimal_config(2000)


def build(n=4, ttl=30.0):
    cache = CacheCluster(
        ProteusRouter(n, ring_size=2 ** 20), capacity_bytes=4096 * 2000,
        ttl=ttl, bloom_config=CFG,
    )
    db = DatabaseCluster(2, service_model=Constant(0.002))
    web = WebServer(0, cache, db)
    return cache, db, web


def warm(web, keys, start=0.0, step=0.01):
    t = start
    for key in keys:
        web.fetch(key, t)
        t += step
    return t


class TestTick:
    def test_pushes_only_moving_keys(self):
        cache, db, web = build()
        keys = [f"page:{i}" for i in range(100)]
        t = warm(web, keys)
        transition = cache.scale_to(3, now=t)
        migrator = BackgroundMigrator(cache, transition, batch_size=1000)
        migrator.tick(t + 1.0)
        # Every key that moved is now at its new owner.
        for key in keys:
            new_owner = cache.router.route(key, 3)
            assert cache.server(new_owner).store.peek(key) is not None
        # Keys that did not move were not pushed anywhere new.
        movers = [k for k in keys if cache.router.route(k, 4) == 3]
        assert migrator.progress.pushed == len(movers)

    def test_rate_limit(self):
        cache, db, web = build()
        t = warm(web, [f"page:{i}" for i in range(200)])
        transition = cache.scale_to(3, now=t)
        migrator = BackgroundMigrator(cache, transition, batch_size=5)
        assert migrator.tick(t + 1.0) <= 5
        assert migrator.progress.pushed <= 5

    def test_skips_already_migrated(self):
        cache, db, web = build()
        keys = [f"page:{i}" for i in range(100)]
        t = warm(web, keys)
        transition = cache.scale_to(3, now=t)
        # On-demand migration first: touch all keys via Algorithm 2.
        for key in keys:
            web.fetch(key, t + 0.5)
        migrator = BackgroundMigrator(cache, transition, batch_size=1000)
        migrator.tick(t + 1.0)
        assert migrator.progress.pushed == 0
        assert migrator.progress.skipped_present > 0

    def test_push_does_not_overwrite_newer_value(self):
        cache, db, web = build()
        # Deterministically pick a key that moves under 4 -> 3.
        key = next(
            f"page:mv-{i}" for i in range(10_000)
            if cache.router.route(f"page:mv-{i}", 4) == 3
        )
        t = warm(web, [key])
        transition = cache.scale_to(3, now=t)
        new_owner = cache.server(cache.router.route(key, 3))
        new_owner.set(key, "fresh-value", now=t + 0.5)
        BackgroundMigrator(cache, transition, batch_size=10).tick(t + 1.0)
        assert new_owner.get(key, t + 2.0) == "fresh-value"

    def test_only_hot_keys_pushed(self):
        cache, db, web = build(ttl=30.0)
        t = warm(web, [f"old:{i}" for i in range(50)], start=0.0)
        t = warm(web, [f"new:{i}" for i in range(50)], start=100.0)
        transition = cache.scale_to(3, now=t)
        migrator = BackgroundMigrator(cache, transition, batch_size=1000)
        migrator.tick(t + 0.1)
        # Keys idle for ~100 s are beyond the hotness horizon: not pushed.
        pushed_old = [
            f"old:{i}" for i in range(50)
            if cache.router.route(f"old:{i}", 4) == 3
            and cache.server(cache.router.route(f"old:{i}", 3)).store.peek(
                f"old:{i}") is not None
        ]
        assert pushed_old == []

    def test_validation(self):
        cache, db, web = build()
        transition = cache.scale_to(3, now=0.0)
        with pytest.raises(ConfigurationError):
            BackgroundMigrator(cache, transition, batch_size=0)
        with pytest.raises(ConfigurationError):
            BackgroundMigrator(cache, transition, interval=0.0)


class TestInstall:
    def test_event_loop_drains_queue_before_deadline(self):
        cache, db, web = build(ttl=20.0)
        keys = [f"page:{i}" for i in range(150)]
        loop = EventLoop()
        t = warm(web, keys)
        loop.run_until(t)
        transition = cache.scale_to(3, now=t)
        migrator = BackgroundMigrator(
            cache, transition, batch_size=10, interval=0.5
        )
        migrator.install(loop)
        loop.run_until(transition.deadline)
        assert migrator.done
        movers = [k for k in keys if cache.router.route(k, 4) == 3]
        assert migrator.progress.pushed == len(movers)

    def test_post_ttl_requests_hit_after_push(self):
        # The point of the extension: untouched-during-window keys survive.
        cache, db, web = build(ttl=10.0)
        keys = [f"page:{i}" for i in range(120)]
        loop = EventLoop()
        t = warm(web, keys)
        loop.run_until(t)
        transition = cache.scale_to(3, now=t)
        BackgroundMigrator(cache, transition, batch_size=50,
                           interval=0.5).install(loop)
        loop.run_until(transition.deadline + 1.0)
        cache.finalize_expired(transition.deadline + 1.0)
        db_before = db.total_requests()
        paths = [web.fetch(k, transition.deadline + 2.0).path for k in keys]
        assert FetchPath.MISS_DB not in paths
        assert db.total_requests() == db_before

    def test_scale_up_push(self):
        cache, db, web = build()
        cache.abrupt_scale_to(3, now=0.0)
        keys = [f"page:{i}" for i in range(100)]
        t = warm(web, keys, start=1.0)
        transition = cache.scale_to(4, now=t)
        migrator = BackgroundMigrator(cache, transition, batch_size=1000)
        migrator.tick(t + 0.5)
        movers = [k for k in keys if cache.router.route(k, 4) == 3]
        assert migrator.progress.pushed == len(movers)
        for key in movers:
            assert cache.server(3).store.peek(key) is not None
