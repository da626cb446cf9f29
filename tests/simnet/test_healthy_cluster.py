"""A healthy, warm cluster never sends a cached key to the database.

Proteus exists to keep cached keys away from a queueing database (§IV,
the Fig. 9 spike), so no client-side armor may turn concurrency alone
into database reads.  Here 400 keys are warm on three healthy servers
and 160 fetchers each page 16 of them at once, against a database that
queues (four at a time, 5 ms each): every key must come from the cache,
under every :class:`~repro.resilience.ResiliencePolicy` factory.
"""

import asyncio
import random

import pytest

from repro.core.retrieval import FetchPath
from repro.resilience import ResiliencePolicy
from tests.simnet import cluster, run, value_of

KEYS = [f"page:{i}" for i in range(400)]
FETCHERS = 160
PAGE = 16
POLICIES = {
    "default": ResiliencePolicy.default,
    "aggressive": lambda: ResiliencePolicy.aggressive(op_timeout=0.2),
    "overload_armor": lambda: ResiliencePolicy.overload_armor(op_timeout=0.2),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_concurrent_pages_of_warm_keys_read_the_database_zero_times(policy):
    reads, queue = [], asyncio.Semaphore(4)

    async def database(key):
        async with queue:
            reads.append(key)
            await asyncio.sleep(0.005)
            return value_of(key)

    async def fetcher(web, rng):
        page = rng.sample(KEYS, PAGE)
        results = await web.fetch_many(page)
        assert {key: results[key].value for key in page} == {
            key: value_of(key) for key in page
        }
        return [results[key].path for key in page]

    async def body():
        async with cluster(3, POLICIES[policy](), database=database) as stack:
            web = stack.web
            for start in range(0, len(KEYS), PAGE):
                await web.fetch_many(KEYS[start:start + PAGE])
            assert len(reads) == len(KEYS)
            reads.clear()
            rng = random.Random(0)
            pages = await asyncio.gather(*(
                fetcher(web, random.Random(rng.getrandbits(32)))
                for _ in range(FETCHERS)
            ))
            assert reads == []
            assert {path for paths in pages for path in paths} == {
                FetchPath.HIT_NEW
            }

    run(body())
