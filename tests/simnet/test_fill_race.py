"""The look-aside fill race, pinned on the virtual loop.

A miss reads the database, a ``put`` of a newer value lands while that
read is still parked, and then the miss's write-back installs the value
it read.  Algorithm 2's line-12 write-back is a plain ``set``, so the
stale value overwrites the put's and every later fetch is a ``HIT_NEW``
of it.  Memcached's answer is to write back with ``add`` (Nishtala et
al., *Scaling Memcache at Facebook*, NSDI '13); until that lands this
test is an expected failure, and a strict one, so the fix has to flip
it.
"""

import asyncio

import pytest

from tests.simnet import cluster, run


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="write-back is set, not add: ROADMAP item 2",
)
def test_a_put_during_a_miss_survives_its_write_back():
    rows = {"k": b"v1"}

    async def database(key):
        value = rows[key]
        await asyncio.sleep(1.0)  # the read parks; the put lands meanwhile
        return value

    async def body():
        async with cluster(database=database) as stack:
            web = stack.web
            miss = asyncio.ensure_future(web.fetch("k"))
            await asyncio.sleep(0.5)
            rows["k"] = b"v2"
            await web.put("k", b"v2")
            assert (await miss).value == b"v1"  # it read before the put
            assert (await web.fetch("k")).value == b"v2"

    run(body())
