"""Overload armor: shed classification, timeouts, admission.

The client-side half of the overload contract, driven through
:class:`~repro.net.transport.CacheTransport` over a scripted pool
(:mod:`tests.net.scripted`) and, end to end, through the frontend:

* shed replies (``SERVER_ERROR busy``) are **never retried** — one
  attempt, then degrade;
* cancellation propagates immediately (never absorbed into a retry);
* a server that never answers degrades the fetch and trips its breaker;
* DB-path admission sheds misses while hits keep being served.
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.core.retrieval import SERVER_UNAVAILABLE, FetchPath
from repro.errors import ServerBusyError, TransportError
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import AdmissionController, Deadline, ResiliencePolicy
from tests.net.scripted import make

CFG = optimal_config(2000)


def run(coro):
    return asyncio.run(coro)


def make_frontend(resilience=None, **kwargs):
    async def db(key):
        return f"db-value-of-{key}".encode()

    return AsyncProteusFrontend(
        [("127.0.0.1", 1)], CFG, db, resilience=resilience, **kwargs
    )


class TestNeverRetrySheds:
    def test_server_busy_is_one_attempt_then_degrade(self):
        async def body():
            transport, pool, client = make(ServerBusyError("SERVER_ERROR busy"))
            result = await transport.get_multi(0, ["k"])
            assert result is SERVER_UNAVAILABLE
            assert client.exchanges == 1  # a shed is never retried
            assert transport.shed_rpcs == 1
            assert transport.transient_failures == 0  # not a breaker failure
            assert pool.leases == 0

        run(body())

    def test_cancellation_propagates_without_retry(self):
        async def body():
            transport, pool, client = make(asyncio.CancelledError())
            with pytest.raises(asyncio.CancelledError):
                await transport.get_multi(0, ["k"])
            assert client.exchanges == 1
            assert pool.leases == 0  # released on the way out

        run(body())

    def test_expired_deadline_skips_the_op_entirely(self):
        async def body():
            transport, pool, _ = make(TransportError("unreached"))
            result = await transport.get_multi(0, ["k"], Deadline(0.0))
            assert result is SERVER_UNAVAILABLE
            assert pool.acquires == 0  # fail fast: no dial, no queue
            assert transport.unavailable_rpcs == 1

        run(body())


class TestTimeouts:
    def test_a_blackholed_server_degrades_and_trips_the_breaker(self):
        async def body():
            # End to end: the timeout comes off the connection's reply
            # timer and counts as a liveness failure for the breaker.
            accepted = []  # held open, never read
            blackhole = await asyncio.start_server(
                lambda r, w: accepted.append(w), "127.0.0.1", 0
            )
            port = blackhole.sockets[0].getsockname()[1]

            async def db(key):
                return f"db-value-of-{key}".encode()

            web = AsyncProteusFrontend(
                [("127.0.0.1", port)], CFG, db,
                resilience=ResiliencePolicy.aggressive(op_timeout=0.05),
            )
            async with web:
                result = await web.fetch("page:1")
                assert result.value == b"db-value-of-page:1"
                assert result.path is FetchPath.DEGRADED_DB
                assert web.transport_stats()["transient_failures"] >= 1
                assert web.transport.breakers[0].trips >= 1
            for writer in accepted:
                writer.close()
            blackhole.close()
            await blackhole.wait_closed()

        run(body())


class TestTransportStats:
    def test_base_keys_always_present(self):
        assert set(make_frontend().transport_stats()) == {
            "dials", "ejections", "reconnects", "pool_waited",
            "pool_leases_peak",
            "unavailable_rpcs", "transient_failures", "shed_rpcs",
            "shed_fetches",
        }


class _DenyAll(AdmissionController):
    """Refuse every DB read — the deterministic overload oracle."""

    def _admit(self, now):
        return False


class TestLiveAdmission:
    def test_hits_served_while_db_path_sheds(self):
        async def body():
            server = MemcachedServer(bloom_config=CFG)
            await server.start()

            async def db(key):
                return f"db-value-of-{key}".encode()

            web = AsyncProteusFrontend(
                [("127.0.0.1", server.port)], CFG, db
            )
            await web.connect()
            try:
                # Warm one key with admission off.
                first = await web.fetch("page:warm")
                assert first.path is FetchPath.MISS_DB

                web.engine.admission = _DenyAll()
                # Priority tier 1: the hit completes before any database
                # decision — admission is never consulted.
                hit = await web.fetch("page:warm")
                assert hit.path is FetchPath.HIT_NEW
                assert hit.value == b"db-value-of-page:warm"
                # Priority tier 2: the miss's DB read is refused.
                cold = await web.fetch("page:cold")
                assert cold.path is FetchPath.SHED
                assert cold.value is None
                assert web.stats.shed == 1
                assert web.stats.goodput == web.stats.total - 1
                assert web.transport_stats()["shed_fetches"] == 1
                assert web.engine.admission.shed == 1
            finally:
                await web.close()
                await server.stop()

        run(body())
