"""Per-call cost of a batch of one, through public APIs only.

Every simulator experiment calls ``WebServer.fetch`` per key, and ``fetch``
is ``fetch_many([key])[key]`` — so the fixed cost of one round of the batch
protocol is the simulator's speed.  This prints it, warm hit path, next to
the routing call it contains.  Run on a checkout that still has the scalar
``RetrievalEngine.retrieve`` (before PR 13) it also times that, which is
where the before/after figures in CHANGES.md come from::

    PYTHONPATH=src python benchmarks/bench_batch_of_one.py

Not gated: this VM's speed moves +-30 % by the minute, so compare two
checkouts by running them alternately and reading the minima.
"""

from __future__ import annotations

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

CALLS = 20_000
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


def main() -> None:
    router = ProteusRouter(8)
    engine = RetrievalEngine(router)
    epochs = RoutingEpochs(new=8, old=None, transition=None)
    rows = {}
    if hasattr(engine, "retrieve"):  # the pre-PR-13 scalar generator
        rows["engine.retrieve(k)"] = best_us(
            lambda k: drive(engine.retrieve(k, epochs), lambda command: "v")
        )
    rows["engine.retrieve_many([k])"] = best_us(
        lambda k: drive(
            engine.retrieve_many([k], epochs),
            lambda round_: tuple({key: "v" for key in c.keys} for c in round_),
        )
    )
    rows["router.route(k)"] = best_us(lambda k: router.route(k, 8))
    rows["router.route_many([k])"] = best_us(lambda k: router.route_many([k], 8))

    cache = CacheCluster(
        ProteusRouter(8), capacity_bytes=4096 * 4000,
        bloom_config=optimal_config(4000),
    )
    web = WebServer(0, cache, DatabaseCluster(2))
    for key in KEYS:
        web.fetch(key, 0.0)
    assert all(web.fetch(key, WARM).path == "hit_new" for key in KEYS)
    rows["sim WebServer.fetch(k)"] = best_us(lambda k: web.fetch(k, WARM))
    rows["sim WebServer.fetch_many([k])"] = best_us(
        lambda k: web.fetch_many([k], WARM)
    )
    print("warm hit path, microseconds per call (min of "
          f"{REPEATS} x {CALLS} calls):")
    for label, micros in rows.items():
        print(f"  {label:32s} {micros:7.2f}")


if __name__ == "__main__":
    main()
