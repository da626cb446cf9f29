"""Overload armor: shed classification, budgets, limiter, admission.

The client-side half of the overload contract, driven through
:class:`~repro.net.transport.CacheTransport` over a scripted pool
(:mod:`tests.net.scripted`) and, end to end, through the frontend:

* shed replies (``SERVER_ERROR busy``) and local bounds (full windows,
  saturated pools) are **never retried** — one attempt, then degrade;
* cancellation propagates immediately (never absorbed into a retry);
* the transport-wide :class:`~repro.resilience.RetryBudget` caps total
  retry volume at a fraction of request volume;
* per-server AIMD limiters bound concurrent RPCs and treat op timeouts
  (not refused connections) as congestion signals;
* DB-path admission sheds misses while hits keep being served.
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.core.retrieval import SERVER_UNAVAILABLE, FetchPath
from repro.errors import ClientOverloadError, ServerBusyError, TransportError
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import (
    AdmissionController,
    Deadline,
    ResiliencePolicy,
    RetryBudget,
)
from tests.net.scripted import fast_retry, make

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

    def test_client_overload_is_one_attempt_then_degrade(self):
        async def body():
            transport, pool, _ = make(
                dial_error=ClientOverloadError("window full")
            )
            result = await transport.set_multi(0, [("k", b"v")])
            assert result is SERVER_UNAVAILABLE
            assert pool.acquires == 1
            assert transport.shed_rpcs == 1

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

class TestRetryBudget:
    def test_spent_budget_denies_the_retry(self):
        async def body():
            transport, _, client = make(
                TransportError("reset"),
                retry_budget_ratio=0.01,  # one RPC deposits ~nothing
            )
            assert transport.retry_budget is not None
            # No trickle reserve, so a slow run cannot fund the retry.
            transport.retry_budget = RetryBudget(
                ratio=0.01, min_retries_per_second=0.0
            )
            result = await transport.get_multi(0, ["k"])
            assert result is SERVER_UNAVAILABLE
            assert client.exchanges == 1  # the retry was denied, not slept
            assert transport.budget_denied_retries == 1
            assert transport.retry_budget.denied == 1
            assert transport.retry_budget.granted == 0

        run(body())

    def test_funded_budget_grants_retries(self):
        async def body():
            transport, _, client = make(
                TransportError("reset"), retry_budget_ratio=1.0
            )
            # Fund the bucket with request volume first.
            transport.retry_budget.record_request(n=10)
            await transport.get_multi(0, ["k"])
            assert client.exchanges == 3  # all attempts ran
            assert transport.budget_denied_retries == 0
            assert transport.retry_budget.granted == 2

        run(body())


class TestAdaptiveLimiter:
    def test_full_window_sheds_before_the_op(self):
        async def body():
            transport, pool, _ = make(
                TransportError("unreached"), limiter_window=1
            )
            limiter = transport.limiters[0]
            limiter.inflight = limiter.window  # window occupied
            result = await transport.get_multi(0, ["k"])
            assert result is SERVER_UNAVAILABLE
            assert pool.acquires == 0
            assert transport.shed_rpcs == 1
            assert limiter.shed == 1

        run(body())

    def test_op_timeouts_cut_the_window(self):
        async def body():
            timeout = TransportError("op timed out")
            timeout.__cause__ = asyncio.TimeoutError()
            transport, _, _ = make(
                timeout, retry=fast_retry(max_attempts=2), limiter_window=8
            )
            await transport.get_multi(0, ["k"])
            limiter = transport.limiters[0]
            assert limiter.cuts >= 1
            assert limiter.limit < 8.0
            assert limiter.inflight == 0  # released on every exit path

        run(body())

    def test_refused_connections_do_not_cut_the_window(self):
        async def body():
            # A refused dial is the breaker's business, not congestion.
            transport, pool, _ = make(
                dial_error=ConnectionRefusedError(),
                retry=fast_retry(max_attempts=2), limiter_window=8,
            )
            await transport.get_multi(0, ["k"])
            assert pool.acquires == 2
            assert transport.limiters[0].cuts == 0
            assert transport.limiters[0].inflight == 0
            assert transport.transient_failures == 2

        run(body())

    def test_blackholed_server_cuts_the_window_and_feeds_the_breaker(self):
        async def body():
            # End to end: the timeout comes off the connection's reply
            # timer, and must still read as congestion (cut) *and* as a
            # liveness failure (breaker).
            blackhole = await asyncio.start_server(
                lambda r, w: asyncio.sleep(3600), "127.0.0.1", 0
            )
            port = blackhole.sockets[0].getsockname()[1]

            async def db(key):
                return f"db-value-of-{key}".encode()

            web = AsyncProteusFrontend(
                [("127.0.0.1", port)], CFG, db,
                resilience=ResiliencePolicy.overload_armor(op_timeout=0.05),
            )
            async with web:
                result = await web.fetch("page:1")
                assert result.value == b"db-value-of-page:1"
                assert result.path is FetchPath.DEGRADED_DB
                stats = web.transport_stats()
                assert stats["limiter_cuts"] >= 1
                assert stats["transient_failures"] >= 1
                assert web.transport.breakers[0].trips >= 1
                assert web.transport.limiters[0].inflight == 0
            blackhole.close()
            await blackhole.wait_closed()

        run(body())


class TestTransportStats:
    def test_base_keys_always_present(self):
        web = make_frontend()
        stats = web.transport_stats()
        for key in (
            "dials", "ejections", "reconnects", "pool_waited",
            "pool_leases_peak",
            "unavailable_rpcs", "transient_failures", "shed_rpcs",
            "budget_denied_retries", "shed_fetches",
        ):
            assert key in stats
        # armor disabled: no budget/limiter sections
        assert "retries_granted" not in stats
        assert "limiter_shed" not in stats

    def test_armor_profile_exposes_budget_and_limiter_sections(self):
        web = make_frontend(ResiliencePolicy.overload_armor())
        stats = web.transport_stats()
        for key in (
            "retries_granted", "retries_denied",
            "limiter_shed", "limiter_cuts", "limiter_peak_inflight",
        ):
            assert key in stats


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
