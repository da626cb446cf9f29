"""Seeded exploration: the live tier under random faults, replayable.

Every seed builds the same stack — three servers, two fetchers paging 16
keys at once with miss coalescing on, and a resize 3 -> 2 -> 3 — and
draws from the seed a :class:`~repro.resilience.FaultSchedule` of kills,
resets, partial writes, blackholes and delays, each healed a little
later, plus every think time, page, latency and chunk boundary, under
:meth:`~repro.resilience.ResiliencePolicy.aggressive`.  Whatever the
interleaving:

* every value returned is the database's;
* nothing but a ``DigestBroadcastError`` from ``scale_to`` escapes;
* the timeline alternates ``transition.begin`` and ``transition.end``,
  and ends on a ``begin`` only while the drain window is still open;
* at quiescence no server or pool holds anything in flight and no task
  is left pending;
* a seed replays bit for bit — same counters, same server stats, same
  final virtual time.

A failure names its seed (``simnet seed=N``); rerun that parameter to
replay it.
"""

import asyncio
import random
from collections import Counter

import pytest

from repro import obs
from repro.core.retrieval import RetrievalConfig
from repro.errors import DigestBroadcastError
from repro.resilience import FaultPlan, FaultSchedule
from tests.simnet import cluster, run, value_of

COALESCING = RetrievalConfig(coalesce_misses=True)

SEEDS = range(20)
KEYS = [f"page:{i}" for i in range(48)]
PAGES = 8
TTL = 0.3
FAULTS = (
    lambda rng: FaultPlan.killed(),
    lambda rng: FaultPlan.flaky(0.3, seed=rng.randrange(1000)),
    lambda rng: FaultPlan(
        partial_write_probability=0.3, seed=rng.randrange(1000)
    ),
    lambda rng: FaultPlan(blackhole=True),
    lambda rng: FaultPlan.slow(0.05, jitter=0.1),
)


def draw_schedule(rng):
    schedule = FaultSchedule()
    for _ in range(rng.randint(1, 3)):
        at = rng.uniform(0.0, 1.0)
        plan = rng.choice(FAULTS)(rng)
        schedule.add(
            at, rng.randrange(3), plan, clear_at=at + rng.uniform(0.1, 0.8)
        )
    return schedule


async def fetcher(web, rng):
    for _ in range(PAGES):
        page = rng.sample(KEYS, 16)
        results = await web.fetch_many(page)
        for key in page:
            assert results[key].value == value_of(key)
        await asyncio.sleep(rng.uniform(0.0, 0.25))


async def resize(web, rng):
    await asyncio.sleep(rng.uniform(0.0, 0.6))
    for n in (2, 3):
        try:
            await web.scale_to(n, ttl=TTL)
        except DigestBroadcastError:
            return  # rolled back: the fleet stays as it was
        await asyncio.sleep(TTL)


def assert_paired(timeline, open_window):
    """Every ``transition.begin`` is followed by its ``transition.end``;
    only the last may still be open, and only while its window is."""
    kinds = [
        event.kind for event in timeline.events
        if event.kind in ("transition.begin", "transition.end")
    ]
    pairs, unmatched = divmod(len(kinds), 2)
    assert kinds == (
        ["transition.begin", "transition.end"] * pairs
        + ["transition.begin"] * unmatched
    ), kinds
    assert bool(unmatched) == open_window


async def explore(seed):
    rng = random.Random(seed)
    async with cluster(3, config=COALESCING) as stack:
        web, transport = stack.web, stack.web.transport
        stack.replay(draw_schedule(rng))
        with obs.recording() as timeline:
            await asyncio.gather(
                fetcher(web, random.Random(rng.getrandbits(32))),
                fetcher(web, random.Random(rng.getrandbits(32))),
                resize(web, random.Random(rng.getrandbits(32))),
            )
            await asyncio.sleep(2.0)  # past every heal; the network is quiet
            # Polling first closes a window whose deadline has passed.
            open_window = web._manager.in_transition(stack.loop.time())
        assert_paired(timeline, open_window)
        assert [server.inflight for server in stack.servers] == [0, 0, 0]
        assert [pool.leases for pool in transport.pools] == [0, 0, 0]
        stats = (dict(web.stats.counts), dict(web.stats.degraded))
    servers = [server._stats_dict() for server in stack.servers]
    return stats, servers, stack.loop.time()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_faults_never_answer_wrong_and_leave_nothing_behind(seed):
    run(explore(seed), seed)


def test_a_seed_replays_bit_for_bit():
    assert run(explore(7), 7) == run(explore(7), 7)


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_misses_read_the_database_once(seed):
    """Two pages miss the same cold keys at once over one connection per
    server: with coalescing, whichever page claims a key first reads it
    and the other waits behind that leader — one read per key."""
    reads = Counter()

    async def database(key):
        reads[key] += 1
        return value_of(key)

    async def body():
        async with cluster(
            3, config=COALESCING, database=database, pool_size=1
        ) as stack:
            keys = KEYS[:16]
            for page in await asyncio.gather(
                stack.web.fetch_many(keys), stack.web.fetch_many(keys)
            ):
                assert {k: r.value for k, r in page.items()} == {
                    k: value_of(k) for k in keys
                }
        assert reads == Counter(keys)

    run(body(), seed)
