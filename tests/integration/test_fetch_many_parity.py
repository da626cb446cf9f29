"""Sim-vs-live parity for batched retrieval (``fetch_many``).

Same structure as :mod:`tests.integration.test_retrieval_parity`, but for
the batch planner: equivalent cluster states on the simulated and asyncio
TCP substrates must produce identical per-key :class:`FetchPath` decisions
for a whole batch, identical values, and identical :class:`FetchStats`
counts to looping ``fetch`` — while the live tier spends at most one
``get_multi`` round trip per probed server per routing epoch.
"""

import asyncio

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.retrieval import FetchPath, RetrievalConfig
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

CFG = optimal_config(2000)
NUM_SERVERS = 4


def run(coro):
    return asyncio.run(coro)


class SimSubstrate:
    """The simulated three-tier testbed, advanced by an explicit clock."""

    def __init__(self, coalesce=False):
        self.cache = CacheCluster(
            ProteusRouter(NUM_SERVERS),
            capacity_bytes=4096 * 2000,
            bloom_config=CFG,
        )
        self.db = DatabaseCluster(2, service_model=Constant(0.005))
        self.web = WebServer(
            0, self.cache, self.db,
            cache_latency=Constant(0.001), web_overhead=Constant(0.001),
            config=RetrievalConfig(coalesce_misses=coalesce),
        )
        self.clock = 0.0

    def fetch_many(self, keys):
        # Each batch starts after the previous one completed (writes at a
        # future virtual time are invisible to earlier reads, by design).
        self.clock += 0.05
        results = self.web.fetch_many(keys, self.clock)
        self.clock = max(
            self.clock, max(r.completed for r in results.values())
        )
        return results

    def fetch(self, key):
        self.clock += 0.05
        result = self.web.fetch(key, self.clock)
        self.clock = max(self.clock, result.completed)
        return result

    def scale_to(self, n_new):
        self.clock += 0.05
        self.cache.scale_to(n_new, self.clock, 60.0)


class LoggingTransport:
    """``web.transport`` wrapper: logs every ``get_multi`` RPC, forwards
    everything (the wrapped :class:`CacheTransport` does the work)."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get_multi(self, server_id, keys, deadline=None):
        self._log.append((server_id, len(keys)))
        return self._inner.get_multi(server_id, keys, deadline)


class LiveSubstrate:
    """The asyncio TCP testbed: real sockets on localhost."""

    def __init__(self, coalesce=False):
        self.coalesce = coalesce
        self.db_reads = 0
        self.servers = []
        self.web = None
        #: (server_id, key_count) per get_multi round trip issued
        self.multiget_log = []

    async def start(self):
        self.servers = [
            MemcachedServer(bloom_config=CFG) for _ in range(NUM_SERVERS)
        ]
        endpoints = []
        for server in self.servers:
            port = await server.start()
            endpoints.append(("127.0.0.1", port))
        self.web = AsyncProteusFrontend(
            endpoints, CFG, self._db_fetch,
            config=RetrievalConfig(coalesce_misses=self.coalesce),
        )
        self.web.transport = LoggingTransport(
            self.web.transport, self.multiget_log
        )
        await self.web.connect()
        return self

    async def _db_fetch(self, key):
        self.db_reads += 1
        await asyncio.sleep(0.001)
        return f"db-value-of-{key}".encode()

    async def stop(self):
        if self.web is not None:
            await self.web.close()
        for server in self.servers:
            await server.stop()


def remapped_keys(count=20):
    """Keys whose owner changes between the 4- and 3-server mappings."""
    router = ProteusRouter(NUM_SERVERS)
    found = []
    for i in range(100_000):
        key = f"page:{i}"
        if router.route(key, 4) != router.route(key, 3):
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("not enough remapped keys")


def paths(results):
    return {key: result.path for key, result in results.items()}


class TestFetchManyParity:
    def test_cold_then_warm_batch(self):
        keys = [f"page:{i}" for i in range(16)]
        sim = SimSubstrate()

        async def body():
            live = await LiveSubstrate().start()
            try:
                sim_cold = paths(sim.fetch_many(keys))
                live_cold = paths(await live.web.fetch_many(keys))
                sim_warm = paths(sim.fetch_many(keys))
                live_warm = paths(await live.web.fetch_many(keys))
                assert sim_cold == live_cold
                assert sim_warm == live_warm
                assert set(sim_cold.values()) == {FetchPath.MISS_DB}
                assert set(sim_warm.values()) == {FetchPath.HIT_NEW}
            finally:
                await live.stop()

        run(body())

    def test_mid_transition_batch_mixes_digest_and_db_paths(self):
        warm = remapped_keys()
        cold = [f"page:never-{i}" for i in range(6)]
        sim = SimSubstrate()

        async def body():
            live = await LiveSubstrate().start()
            try:
                sim.fetch_many(warm)
                await live.web.fetch_many(warm)
                sim.scale_to(3)
                await live.web.scale_to(3, ttl=60.0)
                # One batch spanning hot remapped keys and never-cached keys.
                sim_paths = paths(sim.fetch_many(warm + cold))
                live_paths = paths(await live.web.fetch_many(warm + cold))
                assert sim_paths == live_paths
                assert FetchPath.HIT_OLD in set(sim_paths.values())
                assert all(
                    sim_paths[key] is FetchPath.MISS_DB for key in cold
                )
                # Property 1: the batch's write-backs made the next batch
                # authoritative everywhere, on both substrates.
                again_sim = paths(sim.fetch_many(warm + cold))
                again_live = paths(await live.web.fetch_many(warm + cold))
                assert set(again_sim.values()) == {FetchPath.HIT_NEW}
                assert again_sim == again_live
            finally:
                await live.stop()

        run(body())

    def test_live_values_byte_identical_to_sequential(self):
        keys = [f"page:{i}" for i in range(12)]

        async def body():
            batched = await LiveSubstrate().start()
            sequential = await LiveSubstrate().start()
            try:
                many = await batched.web.fetch_many(keys)
                singles = {
                    key: await sequential.web.fetch(key) for key in keys
                }
                for key in keys:
                    assert many[key].value == singles[key].value
                    assert isinstance(many[key].value, bytes)
                    assert many[key].path is singles[key].path
                assert (
                    batched.web.stats.counts == sequential.web.stats.counts
                )
            finally:
                await batched.stop()
                await sequential.stop()

        run(body())

    def test_live_batch_is_one_multiget_per_server_per_epoch(self):
        warm = remapped_keys()
        cold = [f"page:never-{i}" for i in range(6)]

        async def body():
            live = await LiveSubstrate().start()
            try:
                await live.web.fetch_many(warm)
                steady_counts = {}
                for server_id, _ in live.multiget_log:
                    steady_counts[server_id] = (
                        steady_counts.get(server_id, 0) + 1
                    )
                # Steady state: one epoch, so one multiget per server.
                assert all(count == 1 for count in steady_counts.values())

                await live.web.scale_to(3, ttl=60.0)
                live.multiget_log.clear()
                await live.web.fetch_many(warm + cold)
                transition_counts = {}
                for server_id, _ in live.multiget_log:
                    transition_counts[server_id] = (
                        transition_counts.get(server_id, 0) + 1
                    )
                # In transition each server is probed at most once per
                # epoch: once as a new owner, once as an old owner.
                assert all(
                    count <= 2 for count in transition_counts.values()
                )
            finally:
                await live.stop()

        run(body())

    def test_sim_batch_equals_sequential_loop_on_twin_substrates(self):
        warm = remapped_keys()
        cold = [f"page:never-{i}" for i in range(4)]
        batched, sequential = SimSubstrate(), SimSubstrate()
        batched.fetch_many(warm)
        for key in warm:
            sequential.fetch(key)
        batched.scale_to(3)
        sequential.scale_to(3)
        many = batched.fetch_many(warm + cold)
        singles = {key: sequential.fetch(key) for key in warm + cold}
        for key in warm + cold:
            assert many[key].value == singles[key].value
            assert many[key].path is singles[key].path
            assert many[key].new_server == singles[key].new_server
        assert batched.web.stats.counts == sequential.web.stats.counts

    def test_duplicate_keys_one_entry_and_one_db_read(self):
        sim = SimSubstrate()
        results = sim.fetch_many(["dup", "dup", "dup"])
        assert list(results) == ["dup"]
        assert sim.db.total_requests() == 1

        async def body():
            live = await LiveSubstrate().start()
            try:
                out = await live.web.fetch_many(["dup", "dup", "dup"])
                assert list(out) == ["dup"]
                assert live.db_reads == 1
            finally:
                await live.stop()

        run(body())

    def test_concurrent_coalescing_pages_read_each_key_once(self):
        # Two pages that miss the same keys at the same moment: the leader
        # claim must be atomic with the "no leader yet" check, or both
        # pages read the database (the dog pile coalescing exists to stop).
        keys = [f"page:{i}" for i in range(8)]

        async def body():
            live = await LiveSubstrate(coalesce=True).start()
            try:
                pages = await asyncio.gather(
                    *[live.web.fetch_many(keys) for _ in range(4)]
                )
                assert live.db_reads == len(keys)
                for page in pages:
                    for key in keys:
                        assert page[key].value == f"db-value-of-{key}".encode()
                assert live.web.stats.counts[FetchPath.MISS_DB] == len(keys)
                assert (
                    live.web.stats.counts[FetchPath.COALESCED]
                    == 3 * len(keys)
                )
                assert not live.web._inflight
            finally:
                await live.stop()

        run(body())
