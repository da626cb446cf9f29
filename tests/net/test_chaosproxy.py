"""Chaos integration: the live tier served through fault-injecting proxies.

Each test stands up real ``MemcachedServer`` endpoints behind
``ChaosProxy`` instances, drives ``AsyncProteusFrontend`` through a
scripted fault, and asserts the acceptance bar: every request answered
with the correct value, the degraded path accounted, no exception
escaping ``fetch``/``fetch_many``.
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import DigestBroadcastError, TransitionError
from repro.net.chaosproxy import ChaosProxy
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import FaultPlan, ResiliencePolicy

BLOOM = optimal_config(1000)
POLICY = ResiliencePolicy.aggressive(op_timeout=0.2)


def run(coro):
    return asyncio.run(coro)


def value_of(key):
    return f"db:{key}".encode()


async def database(key):
    return value_of(key)


class Stack:
    """Servers + proxies + frontend, torn down in one place."""

    def __init__(self, n=3, policy=POLICY):
        self.n = n
        self.policy = policy
        self.servers = []
        self.proxies = []
        self.frontend = None

    async def __aenter__(self):
        self.servers = [MemcachedServer(bloom_config=BLOOM) for _ in range(self.n)]
        for server in self.servers:
            await server.start()
        self.proxies = [
            ChaosProxy("127.0.0.1", server.port) for server in self.servers
        ]
        for proxy in self.proxies:
            await proxy.start()
        self.frontend = AsyncProteusFrontend(
            [("127.0.0.1", proxy.port) for proxy in self.proxies],
            BLOOM,
            database,
            resilience=self.policy,
        )
        await self.frontend.connect()
        return self

    async def __aexit__(self, *exc_info):
        await self.frontend.close()
        for proxy in self.proxies:
            await proxy.close()
        for server in self.servers:
            await server.stop()


@pytest.mark.timeout(60)
class TestKilledServer:
    def test_server_killed_mid_fetch_degrades_to_database(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"k{i}" for i in range(24)]
                await web.fetch_many(keys)  # warm while healthy
                stack.proxies[0].set_plan(FaultPlan.killed())
                for key in keys:
                    result = await web.fetch(key)
                    assert result.value == value_of(key)
                assert web.stats.degraded["probe_new"] > 0
                assert web.stats.counts["degraded_db"] > 0
                # repeated requests trip the breaker: later fetches skip
                # the dead server without paying the dial cost
                assert web.transport.breakers[0].trips >= 1
                # heal: after the breaker's reset window, service recovers
                stack.proxies[0].set_plan(FaultPlan.none())
                await asyncio.sleep(stack.policy.breaker_reset + 0.05)
                degraded_before = web.stats.degraded_events
                for key in keys:
                    result = await web.fetch(key)
                    assert result.value == value_of(key)
                assert web.stats.degraded_events == degraded_before

        run(body())

    def test_server_killed_mid_transition_digest_hits_degrade(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"page:{i}" for i in range(32)]
                await web.fetch_many(keys)
                await web.scale_to(2, ttl=30.0)
                # the old owners' digests are armed; now kill server 0
                stack.proxies[0].set_plan(FaultPlan.killed())
                results = await web.fetch_many(keys)
                for key in keys:
                    assert results[key].value == value_of(key)
                for key in keys:
                    result = await web.fetch(key)
                    assert result.value == value_of(key)

        run(body())


@pytest.mark.timeout(60)
class TestResetStorm:
    def test_reset_storm_during_fetch_many_serves_every_key(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"k{i}" for i in range(30)]
                await web.fetch_many(keys)
                for index, proxy in enumerate(stack.proxies):
                    proxy.set_plan(FaultPlan.flaky(0.3, seed=index + 1))
                for _ in range(4):
                    results = await web.fetch_many(keys)
                    for key in keys:
                        assert results[key].value == value_of(key)
                resets = sum(proxy.resets for proxy in stack.proxies)
                assert resets > 0  # the storm actually happened
                # retries + reconnects (not only DB fallbacks) carried load
                assert web.transport.reconnects > 0

        run(body())


@pytest.mark.timeout(60)
class TestBlackhole:
    def test_blackholed_server_times_out_and_degrades(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"k{i}" for i in range(12)]
                await web.fetch_many(keys)
                stack.proxies[1].set_plan(FaultPlan(blackhole=True))
                results = await web.fetch_many(keys)
                for key in keys:
                    assert results[key].value == value_of(key)
                assert web.stats.degraded_events > 0

        run(body())


@pytest.mark.timeout(60)
class TestScaleToBroadcastFailure:
    def test_failed_digest_broadcast_rolls_back_and_reports_servers(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"page:{i}" for i in range(16)]
                await web.fetch_many(keys)
                # server 2 is the ceding (draining) server for 3 -> 2; it
                # is the only digest the broadcast needs, so kill it.
                stack.proxies[2].set_plan(FaultPlan.killed())
                with pytest.raises(DigestBroadcastError) as excinfo:
                    await web.scale_to(2, ttl=30.0)
                error = excinfo.value
                assert isinstance(error, TransitionError)
                assert list(error.failures) == [2]
                # rolled back: no drain window armed, routing unchanged
                assert web.n_active == 3
                epochs = web._manager.routing_counts(0.0)
                assert not epochs.in_transition
                # requests still served (degraded around the dead path)
                result = await web.fetch(keys[0])
                assert result.value == value_of(keys[0])
                # heal and retry: the same call now succeeds
                stack.proxies[2].set_plan(FaultPlan.none())
                await asyncio.sleep(stack.policy.breaker_reset + 0.05)
                transition = await web.scale_to(2, ttl=30.0)
                assert transition.n_new == 2
                assert web.n_active == 2

        run(body())

    def test_delayed_digest_broadcast_still_succeeds(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"page:{i}" for i in range(8)]
                await web.fetch_many(keys)
                # 50 ms per chunk is inside the 200 ms op timeout: slower,
                # but the broadcast must complete without degrading
                stack.proxies[0].set_plan(FaultPlan.slow(0.05))
                transition = await web.scale_to(2, ttl=30.0)
                assert transition.n_new == 2
                assert transition.digests  # every old owner answered
                results = await web.fetch_many(keys)
                for key in keys:
                    assert results[key].value == value_of(key)

        run(body())


@pytest.mark.timeout(60)
class TestProxyBookkeeping:
    def test_counters_and_plan_swaps(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            await server.start()
            proxy = await ChaosProxy("127.0.0.1", server.port).start()
            from repro.net.client import MemcachedClient

            client = await MemcachedClient("127.0.0.1", proxy.port).connect()
            await client.set("k", b"v")
            assert await client.get("k") == b"v"
            assert proxy.connections == 1
            assert proxy.plan.is_benign
            # killed: existing connection aborted, new dials refused
            proxy.set_plan(FaultPlan.killed())
            from repro.errors import TransportError

            with pytest.raises(TransportError):
                await client.get("k")
            with pytest.raises((TransportError, OSError)):
                await client.get("k")  # auto-reconnect attempt is refused
            assert proxy.rejected >= 1
            # back to benign: the same client recovers by redialing
            proxy.set_plan(FaultPlan.none())
            assert await client.get("k") == b"v"
            await client.close()
            await proxy.close()
            await server.stop()

        run(body())


@pytest.mark.timeout(60)
class TestConnectPhaseShapes:
    def test_syn_drop_times_out_and_degrades(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"s{i}" for i in range(12)]
                await web.fetch_many(keys)  # warm while healthy
                stack.proxies[0].set_plan(FaultPlan.syn_dropped())
                stack.proxies[0]._abort_live_connections()
                for key in keys:
                    result = await web.fetch(key)
                    assert result.value == value_of(key)
                # redial attempts were swallowed, not refused:
                assert stack.proxies[0].syn_dropped >= 1
                assert web.stats.degraded_events > 0

        run(body())

    def test_syn_dropped_plan_counts_as_killing(self):
        assert FaultPlan.syn_dropped().kills_server
        assert not FaultPlan.syn_dropped().is_benign

    def test_slow_accept_delays_but_serves(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            await server.start()
            proxy = await ChaosProxy("127.0.0.1", server.port).start()
            proxy.set_plan(FaultPlan.slow_accept(0.05))
            from repro.net.client import MemcachedClient

            client = await MemcachedClient("127.0.0.1", proxy.port).connect()
            await client.set("k", b"v")
            assert await client.get("k") == b"v"
            assert proxy.slow_accepts == 1
            await client.close()
            await proxy.close()
            await server.stop()

        run(body())


@pytest.mark.timeout(60)
class TestLossyRequests:
    def test_full_loss_degrades_to_database(self):
        async def body():
            async with Stack() as stack:
                web = stack.frontend
                keys = [f"l{i}" for i in range(8)]
                await web.fetch_many(keys)
                stack.proxies[0].set_plan(
                    FaultPlan.lossy_requests(1.0, seed=1)
                )
                for key in keys:
                    result = await web.fetch(key)
                    assert result.value == value_of(key)
                assert stack.proxies[0].dropped_requests >= 1
                assert web.stats.degraded_events > 0

        run(body())

    def test_partial_loss_is_seeded_and_recoverable(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            await server.start()
            proxy = await ChaosProxy("127.0.0.1", server.port).start()
            from repro.net.client import MemcachedClient

            client = await MemcachedClient("127.0.0.1", proxy.port).connect()
            await client.set("k", b"v")
            proxy.set_plan(FaultPlan.lossy_requests(0.5, seed=7))
            served = 0
            for _ in range(12):
                try:
                    if await asyncio.wait_for(client.get("k"), 0.3) == b"v":
                        served += 1
                except Exception:
                    # swallowed request: redial and continue
                    try:
                        await client.close()
                    except Exception:
                        pass
                    client = await MemcachedClient(
                        "127.0.0.1", proxy.port
                    ).connect()
            assert served >= 1
            assert proxy.dropped_requests >= 1
            proxy.set_plan(FaultPlan.none())
            client = await MemcachedClient("127.0.0.1", proxy.port).connect()
            assert await client.get("k") == b"v"
            await client.close()
            await proxy.close()
            await server.stop()

        run(body())
