"""The look-aside fill race, on the virtual loop.

A miss reads the database, a ``put`` of a newer value lands while that
read is still parked, and then the miss's write-back tries to install the
value it read.  Were Algorithm 2's line-12 write-back a plain ``set``, the
stale value would overwrite the put's and every later fetch would be a
``HIT_NEW`` of it.  The live tier writes back with memcached ``add``
instead (Nishtala et al., *Scaling Memcache at Facebook*, NSDI '13), which
never replaces a copy that is already there.
"""

import asyncio

from tests.simnet import cluster, run


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
