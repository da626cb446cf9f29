"""Per-call cost of a batch of one, through public APIs only.

Every simulator experiment calls ``WebServer.fetch`` per key, and ``fetch``
is ``fetch_many([key])[key]`` — so the fixed cost of one round of the batch
protocol is the simulator's speed.  This prints it, warm hit path, next to
the routing call it contains, for both read-plan lengths: one owner
(``replicas=1``, what the paper's evaluation runs) and two (``replicas=2``,
where a warm hit also refreshes the other replica).  The last row is the
same page on the live tier: ``AsyncProteusFrontend.fetch_many([k])`` over
three in-process servers sharing its event loop, so the row holds the
servers' work and the loop's too::

    PYTHONPATH=src python benchmarks/bench_batch_of_one.py

Not gated: this VM's speed moves +-30 % by the minute, so compare two
checkouts by running them alternately and reading the minima.
"""

from __future__ import annotations

import asyncio
import time

from repro import (
    CacheCluster,
    DatabaseCluster,
    ProteusRouter,
    RetrievalEngine,
    WebServer,
    optimal_config,
)
from repro.core.transition import RoutingEpochs
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend

CALLS = 20_000
#: live pages per repeat (each is a real round trip over loopback)
LIVE_CALLS = 2_000
REPEATS = 7
KEYS = [f"page:{i}" for i in range(512)]
#: long after the warm-up's write-backs landed (items are invisible before
#: their write time)
WARM = 1e6


def best_us(call) -> float:
    """Minimum over REPEATS of the mean microseconds per ``call(key)``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for i in range(CALLS):
            call(KEYS[i & 511])
        best = min(best, (time.perf_counter() - start) / CALLS * 1e6)
    return best


def drive(steps, answer):
    """Run an engine generator, answering each yield with ``answer(it)``."""
    reply = None
    try:
        while True:
            reply = answer(steps.send(reply))
    except StopIteration as stop:
        return stop.value


def engine_row(router) -> float:
    """``retrieve_many([k])`` where every probe hits."""
    engine = RetrievalEngine(router)
    epochs = RoutingEpochs(new=8, old=None, transition=None)
    return best_us(
        lambda k: drive(
            engine.retrieve_many([k], epochs),
            lambda round_: tuple({key: "v" for key in c.keys} for c in round_),
        )
    )


def warm_web(router) -> WebServer:
    cache = CacheCluster(
        router, capacity_bytes=4096 * 4000, bloom_config=optimal_config(4000),
    )
    web = WebServer(0, cache, DatabaseCluster(2))
    for key in KEYS:
        web.fetch(key, 0.0)
    assert all(web.fetch(key, WARM).path == "hit_new" for key in KEYS)
    return web


async def live_row() -> float:
    """Minimum over REPEATS of the mean microseconds per warm
    ``AsyncProteusFrontend.fetch_many([k])`` hit."""
    bloom = optimal_config(4000)

    async def database(key):
        return key.encode()

    servers = [MemcachedServer(bloom_config=bloom) for _ in range(3)]
    endpoints = [("127.0.0.1", await server.start()) for server in servers]
    try:
        async with AsyncProteusFrontend(
            endpoints, bloom, database, pool_size=1
        ) as web:
            for _ in range(2):  # fill, then check every key hits
                results = await web.fetch_many(KEYS)
            assert all(r.path == "hit_new" for r in results.values())
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                for i in range(LIVE_CALLS):
                    await web.fetch_many([KEYS[i & 511]])
                elapsed = time.perf_counter() - start
                best = min(best, elapsed / LIVE_CALLS * 1e6)
            return best
    finally:
        for server in servers:
            await server.stop()


def main() -> None:
    router = ProteusRouter(8)
    two_rings = ProteusRouter(8, replicas=2)
    rows = {}
    rows["engine.retrieve_many([k])"] = engine_row(router)
    rows["engine.retrieve_many([k]) r=2"] = engine_row(two_rings)
    rows["router.route(k)"] = best_us(lambda k: router.route(k, 8))
    rows["router.route_many([k])"] = best_us(lambda k: router.route_many([k], 8))
    rows["router.read_plans([k]) r=2"] = best_us(
        lambda k: two_rings.read_plans([k], 8)
    )

    web = warm_web(router)
    rows["sim WebServer.fetch(k)"] = best_us(lambda k: web.fetch(k, WARM))
    rows["sim WebServer.fetch_many([k])"] = best_us(
        lambda k: web.fetch_many([k], WARM)
    )
    web = warm_web(two_rings)
    rows["sim WebServer.fetch(k) r=2"] = best_us(lambda k: web.fetch(k, WARM))
    rows["live AsyncProteusFrontend.fetch_many([k])"] = asyncio.run(
        live_row()
    )
    print("warm hit path, microseconds per call (min of "
          f"{REPEATS} x {CALLS} calls; live: {REPEATS} x {LIVE_CALLS}):")
    for label, micros in rows.items():
        print(f"  {label:42s} {micros:7.2f}")


if __name__ == "__main__":
    main()
