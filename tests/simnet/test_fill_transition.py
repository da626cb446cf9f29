"""A read's fill never undoes a ``put`` across a transition.

A miss reads the database under one mapping; a transition begins; a
``put`` sets the key on its new owner and deletes it everywhere else
inside the active-or-draining prefix; then the miss's fill ``add``\\ s the
value it read on the owner it planned under the old mapping.  ``add``
protects only the server the ``put`` set, so on a server the ``put``
deleted from, the older value lands — and a later transition that routes
the key back there serves it after the ``put`` returned.  The frontend
counts the transitions it has begun, and a page drops a fill round
planned before one (the fills become later misses).

Each seed runs three servers, no faults, two fetchers paging 8 of 24
keys, a writer bumping the database's version before each of 12 ``put``\\ s,
a slow database, and a resize 2, 3, 2, 3 with a short drain window.  The
check is a regular register over the database's versions: no read that
starts after a ``put`` returned returns an older version.  A frontend
that sends every fill fails seeds 19, 32 and 36.
"""

import asyncio
import random

import pytest

from tests.simnet import cluster, run

SEEDS = range(40)
KEYS = [f"page:{i}" for i in range(24)]
TTL = 0.3
#: longest virtual time a database read sleeps after reading the version
READ_DELAY = 0.4


def value(key, version):
    return f"{key}:{version}".encode()


async def explore(seed):
    rng = random.Random(seed)
    versions = dict.fromkeys(KEYS, 0)  # the database
    acked = dict.fromkeys(KEYS, 0)  # the newest version a put returned
    stale = []  # (key, version read, version acked when the read began)
    delays = random.Random(rng.getrandbits(32))

    async def database(key):
        version = versions[key]
        await asyncio.sleep(delays.uniform(0.0, READ_DELAY))
        return value(key, version)

    async def fetcher(web, rng):
        for _ in range(10):
            page = rng.sample(KEYS, 8)
            floor = {key: acked[key] for key in page}
            results = await web.fetch_many(page)
            for key in page:
                got = int(results[key].value.rsplit(b":", 1)[1])
                if got < floor[key]:
                    stale.append((key, got, floor[key]))
            await asyncio.sleep(rng.uniform(0.0, 0.25))

    async def writer(web, rng):
        for _ in range(12):
            await asyncio.sleep(rng.uniform(0.0, 0.3))
            key = rng.choice(KEYS)
            versions[key] += 1
            version = versions[key]
            await web.put(key, value(key, version))
            acked[key] = max(acked[key], version)

    async def resize(web, rng):
        for n in (2, 3, 2, 3):
            await asyncio.sleep(rng.uniform(0.3, 0.5))
            await web.scale_to(n, ttl=TTL)

    async with cluster(3, database=database) as stack:
        web = stack.web
        await asyncio.gather(
            fetcher(web, random.Random(rng.getrandbits(32))),
            fetcher(web, random.Random(rng.getrandbits(32))),
            writer(web, random.Random(rng.getrandbits(32))),
            resize(web, random.Random(rng.getrandbits(32))),
        )
        await asyncio.sleep(TTL)  # the last drain window closes
    assert not stale, stale


@pytest.mark.parametrize("seed", SEEDS)
def test_no_read_after_a_put_returns_an_older_version(seed):
    run(explore(seed), seed)
