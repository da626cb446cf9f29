"""The live tier under scripted faults, on the virtual network.

Each test runs the unmodified ``MemcachedServer``\\ s and
``AsyncProteusFrontend`` of :func:`tests.simnet.cluster`, applies a
:class:`~repro.resilience.FaultPlan` to one or more server paths, and
asserts the acceptance bar: every request answered with the correct value,
the degraded path accounted, no exception escaping ``fetch`` /
``fetch_many``.  Time is virtual, so waits (a breaker's reset, an op
timeout) cost no wall time and durations are exact.
"""

import asyncio

import pytest

from repro import obs
from repro.errors import DigestBroadcastError, TransitionError, TransportError
from repro.net.client import MemcachedClient
from repro.net.pool import ConnectionPool
from repro.net.server import MemcachedServer
from repro.net.transport import CacheTransport
from repro.resilience import FaultPlan
from tests.simnet import BLOOM, POLICY, VirtualLoop, cluster, run, value_of


async def fetch_each(web, keys):
    for key in keys:
        result = await web.fetch(key)
        assert result.value == value_of(key)


class TestKilledServer:
    def test_server_killed_mid_fetch_degrades_to_database(self):
        async def body():
            async with cluster() as stack:
                web = stack.web
                keys = [f"k{i}" for i in range(24)]
                await web.fetch_many(keys)  # warm while healthy
                stack.set_plan(0, FaultPlan.killed())
                await fetch_each(web, keys)
                assert web.stats.degraded["probe_new"] > 0
                assert web.stats.counts["degraded_db"] > 0
                # repeated requests trip the breaker: later fetches skip
                # the dead server without paying the dial cost
                assert web.transport.breakers[0].trips >= 1
                # heal: after the breaker's reset window, service recovers
                stack.set_plan(0, FaultPlan.none())
                await asyncio.sleep(POLICY.breaker_reset)
                degraded_before = web.stats.degraded_events
                await fetch_each(web, keys)
                assert web.stats.degraded_events == degraded_before
                # and the healed fleet can resize again
                transition = await web.scale_to(2, ttl=30.0)
                assert transition.n_new == 2

        run(body())

    def test_server_killed_mid_transition_digest_hits_degrade(self):
        async def body():
            async with cluster() as stack:
                web = stack.web
                keys = [f"page:{i}" for i in range(32)]
                await web.fetch_many(keys)
                await web.scale_to(2, ttl=30.0)
                # the old owners' digests are armed; now kill server 0
                stack.set_plan(0, FaultPlan.killed())
                results = await web.fetch_many(keys)
                for key in keys:
                    assert results[key].value == value_of(key)
                await fetch_each(web, keys)

        run(body())


class TestResetStorm:
    def test_reset_storm_during_fetch_many_serves_every_key(self):
        async def body():
            async with cluster() as stack:
                web = stack.web
                keys = [f"k{i}" for i in range(30)]
                await web.fetch_many(keys)
                for server_id in range(3):
                    stack.set_plan(server_id, FaultPlan.flaky(0.3, server_id))
                for _ in range(4):
                    results = await web.fetch_many(keys)
                    for key in keys:
                        assert results[key].value == value_of(key)
                # retries + reconnects (not only DB fallbacks) carried load
                assert web.transport.reconnects > 0

        run(body())


class TestBlackhole:
    def test_blackholed_server_times_out_and_degrades(self):
        async def body():
            async with cluster() as stack:
                web, loop = stack.web, stack.loop
                keys = [f"k{i}" for i in range(12)]
                await web.fetch_many(keys)
                stack.set_plan(1, FaultPlan(blackhole=True))
                started = loop.time()
                results = await web.fetch_many(keys)
                for key in keys:
                    assert results[key].value == value_of(key)
                assert web.stats.degraded_events > 0
                # only the op timeout got the page out of the silence
                assert loop.time() - started >= POLICY.op_timeout

        run(body())


class TestScaleToBroadcastFailure:
    def test_failed_digest_broadcast_rolls_back_and_reports_servers(self):
        async def body():
            async with cluster() as stack:
                web = stack.web
                keys = [f"page:{i}" for i in range(16)]
                await web.fetch_many(keys)
                # server 2 is the ceding (draining) server for 3 -> 2; it
                # is the only digest the broadcast needs, so kill it.
                stack.set_plan(2, FaultPlan.killed())
                with obs.recording() as timeline:
                    with pytest.raises(DigestBroadcastError) as excinfo:
                        await web.scale_to(2, ttl=30.0)
                # one rollback naming the dead server; nothing began
                assert [(e.kind, e.fields) for e in timeline.events] == [
                    ("transition.rollback",
                     {"n_old": 3, "n_new": 2, "failed": [2]}),
                ]
                error = excinfo.value
                assert isinstance(error, TransitionError)
                assert list(error.failures) == [2]
                # rolled back: no drain window armed, routing unchanged
                assert web.n_active == 3
                assert not web._manager.routing_counts(0.0).in_transition
                # requests still served (degraded around the dead path)
                await fetch_each(web, keys[:1])
                # heal and retry: the same call now succeeds
                stack.set_plan(2, FaultPlan.none())
                await asyncio.sleep(POLICY.breaker_reset)
                transition = await web.scale_to(2, ttl=30.0)
                assert transition.n_new == 2
                assert web.n_active == 2

        run(body())

    def test_delayed_digest_broadcast_still_succeeds(self):
        async def body():
            async with cluster() as stack:
                web = stack.web
                keys = [f"page:{i}" for i in range(8)]
                await web.fetch_many(keys)
                # 50 ms per reply is inside the 200 ms op timeout: slower,
                # but the broadcast must complete without degrading
                stack.set_plan(2, FaultPlan.slow(0.05))
                transition = await web.scale_to(2, ttl=30.0)
                assert transition.n_new == 2
                assert transition.digests  # every old owner answered
                results = await web.fetch_many(keys)
                for key in keys:
                    assert results[key].value == value_of(key)
                assert web.stats.degraded_events == 0

        run(body())


async def lone_server():
    server = MemcachedServer(bloom_config=BLOOM)
    return server, await server.start()


class TestKillAndHeal:
    def test_a_killed_path_refuses_then_the_same_client_redials(self):
        async def body():
            loop = asyncio.get_running_loop()
            server, port = await lone_server()
            client = await MemcachedClient("127.0.0.1", port).connect()
            await client.set("k", b"v")
            assert await client.get("k") == b"v"
            # killed: the open connection is aborted, new dials refused
            loop.set_plan(port, FaultPlan.killed())
            with pytest.raises(TransportError):
                await client.get("k")
            with pytest.raises(ConnectionRefusedError):
                await client.get("k")  # the auto-redial is refused
            # healed: the same client recovers by redialling
            loop.set_plan(port, FaultPlan.none())
            assert await client.get("k") == b"v"
            assert client.reconnects == 1
            await client.close()
            await server.stop()

        run(body())


class TestUndialledPool:
    def test_concurrent_acquirers_share_the_first_dial(self):
        """Two probes of a server whose ``size=1`` pool has no connection
        yet: the second shares the first one's dial.  An acquirer that
        waited by spinning on ``sleep(0)`` would keep a handle ready, so
        virtual time would never advance and the dial never land; the
        iteration cap turns that livelock into a failure."""

        class CappedLoop(VirtualLoop):
            iterations = 0

            def _run_once(self):
                self.iterations += 1
                if self.iterations > 10_000:
                    raise RuntimeError(f"livelock at t={self.now}")
                super()._run_once()

        async def body():
            server, port = await lone_server()
            transport = CacheTransport([("127.0.0.1", port)], POLICY)
            transport.pools[0] = ConnectionPool(
                "127.0.0.1", port, size=1, timeout=POLICY.op_timeout
            )
            answers = await asyncio.gather(
                transport.get_multi(0, ["a"]), transport.get_multi(0, ["b"])
            )
            assert answers == [{}, {}]
            assert (server.connections, transport.pools[0].dials) == (1, 1)
            await transport.close()
            await server.stop()

        loop = CappedLoop()
        try:
            loop.run_until_complete(body())
        finally:
            loop.close()
        assert loop.iterations < 100


class TestConnectPhaseShapes:
    def test_syn_drop_times_out_and_degrades(self):
        async def body():
            async with cluster() as stack:
                web, loop = stack.web, stack.loop
                keys = [f"s{i}" for i in range(12)]
                await web.fetch_many(keys)  # warm while healthy
                stack.set_plan(0, FaultPlan.syn_dropped())
                started = loop.time()
                await fetch_each(web, keys)
                assert web.stats.degraded_events > 0
                # the path went silent, it did not refuse: only timeouts
                # (the op's, then the redial's) got requests out
                assert loop.time() - started >= 2 * POLICY.op_timeout

        run(body())

    def test_slow_accept_delays_but_serves(self):
        async def body():
            loop = asyncio.get_running_loop()
            server, port = await lone_server()
            loop.set_plan(port, FaultPlan.slow_accept(0.05))
            started = loop.time()
            client = await MemcachedClient("127.0.0.1", port).connect()
            assert loop.time() - started >= 0.05
            await client.set("k", b"v")
            assert await client.get("k") == b"v"
            await client.close()
            await server.stop()

        run(body())


class TestLossyRequests:
    def test_full_loss_degrades_to_database(self):
        async def body():
            async with cluster() as stack:
                web = stack.web
                keys = [f"l{i}" for i in range(8)]
                await web.fetch_many(keys)
                stack.set_plan(0, FaultPlan.lossy_requests(1.0, seed=1))
                await fetch_each(web, keys)
                assert web.stats.degraded_events > 0

        run(body())

    def test_partial_loss_is_seeded_and_recoverable(self):
        async def body():
            loop = asyncio.get_running_loop()
            server, port = await lone_server()
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.3
            ).connect()
            await client.set("k", b"v")
            loop.set_plan(port, FaultPlan.lossy_requests(0.5, seed=7))
            outcomes = []
            for _ in range(12):
                try:
                    outcomes.append(await client.get("k"))
                except TransportError:  # swallowed: the client redials
                    outcomes.append(None)
            assert b"v" in outcomes and None in outcomes
            loop.set_plan(port, FaultPlan.none())
            assert await client.get("k") == b"v"
            await client.close()
            await server.stop()
            return outcomes

        # seeded: the same plan drops the same requests every run
        assert run(body(), seed=3) == run(body(), seed=3)


@pytest.mark.parametrize("scenario", ["reset_storm", "slow_server"])
@pytest.mark.parametrize("seed", [0, 1])
def test_bench_scenario_answers_every_request(scenario, seed):
    """The fault-tolerance bench's two sustained-fault scenarios: a 5 %
    reset rate on every path, and one server 50 ms late.  Single-key
    fetches and 12-key pages over 48 keys must all come back correct."""

    async def body():
        async with cluster() as stack:
            web = stack.web
            keys = [f"page:{i}" for i in range(48)]
            await web.fetch_many(keys)
            if scenario == "reset_storm":
                for server_id in range(3):
                    stack.set_plan(
                        server_id, FaultPlan.flaky(0.05, seed=server_id + 1)
                    )
            else:
                stack.set_plan(0, FaultPlan.slow(0.05))
            correct = total = 0
            for i in range(72):
                result = await web.fetch(keys[i % 48])
                correct += result.value == value_of(keys[i % 48])
                total += 1
            for i in range(4):
                page = keys[i * 12: (i + 1) * 12]
                results = await web.fetch_many(page)
                correct += sum(results[k].value == value_of(k) for k in page)
                total += len(page)
            assert correct / total == 1.0
            if scenario == "slow_server":
                # 50 ms is inside the op timeout: slower, never degraded
                assert web.stats.degraded_events == 0

    run(body(), seed)
