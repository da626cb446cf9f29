"""Tests for the asyncio web tier (Algorithm 2 over live TCP)."""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ConfigurationError, TransitionError
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend

CFG = optimal_config(2000)


def run(coro):
    return asyncio.run(coro)


class CountingDatabase:
    """Async dict-backed authoritative store with a read counter."""

    def __init__(self):
        self.reads = 0
        #: values written since the start (the rest are synthesized)
        self.values = {}

    async def fetch(self, key: str) -> bytes:
        self.reads += 1
        return self.values.get(key, f"db-value-of-{key}".encode())


async def start_cluster(num_servers: int):
    servers = [MemcachedServer(bloom_config=CFG) for _ in range(num_servers)]
    endpoints = []
    for server in servers:
        port = await server.start()
        endpoints.append(("127.0.0.1", port))
    return servers, endpoints


async def stop_cluster(servers):
    for server in servers:
        await server.stop()


class TestSteadyState:
    def test_fetch_miss_then_hit(self):
        async def body():
            servers, endpoints = await start_cluster(3)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as web:
                    result = await web.fetch("page:1")
                    assert result.path == "miss_db"
                    assert result.value == b"db-value-of-page:1"
                    result = await web.fetch("page:1")
                    assert result.path == "hit_new"
                    assert db.reads == 1
            finally:
                await stop_cluster(servers)

        run(body())

    def test_routing_matches_simulator_router(self):
        async def body():
            servers, endpoints = await start_cluster(4)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as web:
                    for i in range(40):
                        key = f"page:{i}"
                        await web.fetch(key)
                        owner = web.router.route(key, 4)
                        # The fill is issued, not awaited: it lands within
                        # a few loop turns.
                        for _ in range(100):
                            if key in servers[owner].store:
                                break
                            await asyncio.sleep(0)
                        # The item physically lives on the routed server.
                        assert key in servers[owner].store
            finally:
                await stop_cluster(servers)

        run(body())

    def test_put_write_through(self):
        async def body():
            servers, endpoints = await start_cluster(3)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as web:
                    await web.put("k", b"direct")
                    result = await web.fetch("k")
                    assert result.value == b"direct" and result.path == "hit_new"
                    assert db.reads == 0
            finally:
                await stop_cluster(servers)

        run(body())

    def test_requires_connect(self):
        web = AsyncProteusFrontend([("127.0.0.1", 1)], CFG, CountingDatabase().fetch)
        with pytest.raises(ConfigurationError):
            run(web.fetch("k"))

    def test_validation(self):
        db = CountingDatabase()
        with pytest.raises(ConfigurationError):
            AsyncProteusFrontend([], CFG, db.fetch)
        with pytest.raises(ConfigurationError):
            AsyncProteusFrontend([("h", 1)], CFG, db.fetch, initial_active=2)


class TestSmoothTransition:
    def test_scale_down_zero_db_reads_for_hot_keys(self):
        async def body():
            servers, endpoints = await start_cluster(4)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as web:
                    keys = [f"page:{i}" for i in range(150)]
                    for key in keys:
                        await web.fetch(key)
                    reads_before = db.reads
                    await web.scale_to(3, ttl=60.0)
                    paths = [
                        (await web.fetch(key)).path for key in keys
                    ]
                    assert db.reads == reads_before
                    assert paths.count("hit_old") > 0
                    assert "miss_db" not in paths
                    # Property 1: second pass is all authoritative hits.
                    second = [(await web.fetch(key)).path for key in keys]
                    assert set(second) == {"hit_new"}
            finally:
                await stop_cluster(servers)

        run(body())

    def test_scale_up_pulls_from_ceding_owners(self):
        async def body():
            servers, endpoints = await start_cluster(4)
            db = CountingDatabase()
            try:
                web = AsyncProteusFrontend(
                    endpoints, CFG, db.fetch, initial_active=3
                )
                await web.connect()
                keys = [f"page:{i}" for i in range(150)]
                for key in keys:
                    await web.fetch(key)
                reads_before = db.reads
                await web.scale_to(4, ttl=60.0)
                paths = [(await web.fetch(key)).path for key in keys]
                assert db.reads == reads_before
                assert paths.count("hit_old") > 0
                await web.close()
            finally:
                await stop_cluster(servers)

        run(body())

    def test_window_expires_by_clock(self):
        async def body():
            servers, endpoints = await start_cluster(3)
            db = CountingDatabase()
            fake = {"t": 0.0}
            try:
                web = AsyncProteusFrontend(
                    endpoints, CFG, db.fetch, clock=lambda: fake["t"]
                )
                await web.connect()
                await web.fetch("page:1")
                fake["t"] = 3.0
                transition = await web.scale_to(2, ttl=10.0)
                # The window is the ttl passed, from the routing flip on.
                assert transition.started_at == 3.0
                assert transition.deadline == transition.started_at + 10.0
                assert web._manager.current(12.9) is transition
                fake["t"] = 13.0
                assert web._manager.current(fake["t"]) is None
                # After expiry, cold remapped keys go to the DB.
                await web.close()
            finally:
                await stop_cluster(servers)

        run(body())

    @staticmethod
    def key_moving_to(web, server, n):
        return next(
            key for key in (f"page:{i}" for i in range(200))
            if web.router.route(key, n) == server
        )

    def test_put_mid_transition_then_eviction_reads_the_new_value(self):
        async def body():
            servers, endpoints = await start_cluster(3)
            db = CountingDatabase()
            try:
                web = AsyncProteusFrontend(
                    endpoints, CFG, db.fetch, initial_active=2
                )
                await web.connect()
                key = self.key_moving_to(web, 2, 3)
                await web.fetch(key)  # v1 at its owner under 2 servers
                await web.scale_to(3, ttl=60.0)
                db.values[key] = b"v2"
                await web.put(key, b"v2")
                servers[2].store.delete(key)  # LRU at the new owner
                first = await web.fetch(key)
                assert first.value == b"v2" and first.path != "hit_old"
                assert (await web.fetch(key)).value == b"v2"
                await web.close()
            finally:
                await stop_cluster(servers)

        run(body())

    def test_put_after_a_closed_window_survives_a_resize_back(self):
        async def body():
            servers, endpoints = await start_cluster(3)
            db = CountingDatabase()
            fake = {"t": 0.0}
            try:
                web = AsyncProteusFrontend(
                    endpoints, CFG, db.fetch, initial_active=2,
                    clock=lambda: fake["t"],
                )
                await web.connect()
                key = self.key_moving_to(web, 2, 3)
                await web.fetch(key)
                await web.scale_to(3, ttl=10.0)
                fake["t"] = 20.0  # the window closes; items never expire
                db.values[key] = b"v2"
                await web.put(key, b"v2")
                await web.scale_to(2, ttl=10.0)
                result = await web.fetch(key)
                assert result.value == b"v2", result.path
                await web.close()
            finally:
                await stop_cluster(servers)

        run(body())

    def test_overlapping_transition_rejected(self):
        async def body():
            servers, endpoints = await start_cluster(3)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as web:
                    await web.scale_to(2, ttl=100.0)
                    with pytest.raises(TransitionError):
                        await web.scale_to(3, ttl=100.0)
            finally:
                await stop_cluster(servers)

        run(body())

    def test_noop_scale_rejected(self):
        async def body():
            servers, endpoints = await start_cluster(2)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as web:
                    # A no-op is no transition, as in the simulator.
                    assert await web.scale_to(2, ttl=10.0) is None
                    assert web._manager.current(0.0) is None
                    with pytest.raises(TransitionError, match="ttl"):
                        await web.scale_to(1, ttl=-1.0)
                    with pytest.raises(TransitionError):
                        await web.scale_to(3, ttl=10.0)
            finally:
                await stop_cluster(servers)

        run(body())


class TestMultipleFrontends:
    def test_independent_frontends_agree(self):
        # The consistency objective over real sockets: two frontends with no
        # shared state route identically and see each other's writes.
        async def body():
            servers, endpoints = await start_cluster(4)
            db = CountingDatabase()
            try:
                async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as a:
                    async with AsyncProteusFrontend(endpoints, CFG, db.fetch) as b:
                        for i in range(30):
                            await a.fetch(f"page:{i}")
                        reads_after_a = db.reads
                        for i in range(30):
                            result = await b.fetch(f"page:{i}")
                            assert result.path == "hit_new"
                        assert db.reads == reads_after_a
            finally:
                await stop_cluster(servers)

        run(body())
