"""Microbenchmark — one K-key page vs a loop of K single-key pages.

Not a paper figure; it quantifies what grouping in the planner
(:meth:`~repro.core.retrieval.RetrievalEngine.retrieve_many`) buys: a
logical page of K keys costs at most one multiget round trip per probed
server instead of K round trips.  Measured on both substrates — the
simulated tier reports cache round trips and virtual latency per page, the
live asyncio tier reports TCP round trips and wall-clock latency per page —
for pages of 1, 8, and 64 keys against a warm 4-server tier.
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.conftest import fmt_row
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

CFG = optimal_config(4000)
NUM_SERVERS = 4
PAGE_SIZES = (1, 8, 64)
PAGES = 20


def _page(size: int, page: int):
    return [f"page:{page}:{i}" for i in range(size)]


# ----------------------------------------------------------- sim substrate


def run_sim(size: int, use_batch: bool):
    """(cache round trips, virtual seconds) per warm logical page."""
    cache = CacheCluster(
        ProteusRouter(NUM_SERVERS), capacity_bytes=4096 * 4000,
        bloom_config=CFG,
    )
    db = DatabaseCluster(2, service_model=Constant(0.005))
    web = WebServer(
        0, cache, db,
        cache_latency=Constant(0.001), web_overhead=Constant(0.0),
    )
    round_trips = 0
    original = web._cache_op

    def counting(now):
        nonlocal round_trips
        round_trips += 1
        return original(now)

    web._cache_op = counting
    clock = 0.0
    for page in range(PAGES):  # warm every page
        results = web.fetch_many(_page(size, page), clock)
        clock = max(r.completed for r in results.values()) + 1.0
    round_trips = 0
    spent = 0.0
    for page in range(PAGES):
        keys = _page(size, page)
        if use_batch:
            results = web.fetch_many(keys, clock)
            done = max(r.completed for r in results.values())
        else:
            # A loop of fetches is K single-key pages, one after the
            # other: each starts when the previous one completed (one
            # blocked servlet thread).
            done = clock
            for key in keys:
                done = web.fetch(key, done).completed
        spent += done - clock
        clock = done + 1.0
    return round_trips / PAGES, spent / PAGES


# ---------------------------------------------------------- live substrate


def run_live(size: int, use_batch: bool):
    """(TCP round trips, wall seconds) per warm logical page."""

    async def body():
        servers = [MemcachedServer(bloom_config=CFG) for _ in range(NUM_SERVERS)]
        endpoints = []
        for server in servers:
            port = await server.start()
            endpoints.append(("127.0.0.1", port))

        async def db(key):
            return f"db-{key}".encode()

        web = AsyncProteusFrontend(endpoints, CFG, db)
        trips = 0

        class CountingTransport:
            """``web.transport`` wrapper counting the engine's RPCs: every
            one is a get_multi / set_multi (a fetch is a page of one)."""

            def __getattr__(self, name):
                return getattr(inner, name)

            def get_multi(self, *args):
                nonlocal trips
                trips += 1
                return inner.get_multi(*args)

            def set_multi(self, *args, **kwargs):
                nonlocal trips
                trips += 1
                return inner.set_multi(*args, **kwargs)

        inner, web.transport = web.transport, CountingTransport()
        try:
            await web.connect()
            for page in range(PAGES):  # warm every page
                await web.fetch_many(_page(size, page))
            trips = 0
            started = time.perf_counter()
            for page in range(PAGES):
                keys = _page(size, page)
                if use_batch:
                    await web.fetch_many(keys)
                else:
                    for key in keys:
                        await web.fetch(key)
            spent = time.perf_counter() - started
            return trips / PAGES, spent / PAGES
        finally:
            await web.close()
            for server in servers:
                await server.stop()

    return asyncio.run(body())


def test_multiget_amortization(benchmark):
    def run_all():
        table = {}
        for size in PAGE_SIZES:
            table[size] = {
                "sim_loop": run_sim(size, use_batch=False),
                "sim_batch": run_sim(size, use_batch=True),
                "live_loop": run_live(size, use_batch=False),
                "live_batch": run_live(size, use_batch=True),
            }
        return table

    table = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print("\nBatched retrieval — round trips and latency per logical page:")
    print(fmt_row("page keys", [
        "sim RT/loop", "sim RT/batch", "sim s/loop", "sim s/batch",
        "live RT/loop", "live RT/batch", "live ms/loop", "live ms/batch",
    ], width=14))
    for size in PAGE_SIZES:
        row = table[size]
        print(fmt_row(str(size), [
            row["sim_loop"][0], row["sim_batch"][0],
            round(row["sim_loop"][1], 4), round(row["sim_batch"][1], 4),
            row["live_loop"][0], row["live_batch"][0],
            round(row["live_loop"][1] * 1e3, 3),
            round(row["live_batch"][1] * 1e3, 3),
        ], width=14))

    for size in PAGE_SIZES:
        row = table[size]
        # A warm batch never probes a server twice, so its round trips are
        # bounded by the server count regardless of page size.
        assert row["sim_batch"][0] <= NUM_SERVERS
        assert row["live_batch"][0] <= NUM_SERVERS
        if size > 1:
            # The loop pays one round trip per key.
            assert row["sim_loop"][0] == size
            assert row["live_loop"][0] == size
            assert row["sim_batch"][0] < row["sim_loop"][0]
            assert row["live_batch"][0] < row["live_loop"][0]
            # Fewer round trips means less modelled latency per page.
            assert row["sim_batch"][1] < row["sim_loop"][1]
