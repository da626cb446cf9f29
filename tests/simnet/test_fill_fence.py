"""A transition waits for the fills issued before it, on the virtual loop.

A read's fill is issued and not awaited, on whichever pooled connection
the page leased; a server answers each connection's commands in order,
but two connections' bytes may overtake each other.  So a fill issued just
before ``scale_to`` on one connection could land after the ceding
server's digest snapshot, taken on another: the old owner would hold a
key its digest does not advertise, and the drain would read the database
for it.  ``scale_to`` fences each server first — one round trip per
connection that carried a fill — so the snapshot sees every such fill.
"""

import asyncio

import pytest

from repro.core.retrieval import FetchPath
from tests.simnet import cluster, run
from tests.simnet.test_explore import SEEDS

TTL = 1.0


def owned_by(web, server_id, n):
    """The ``page:i`` keys *server_id* owns at *n* active servers."""
    return [
        key for key in (f"page:{i}" for i in range(2000))
        if web.router.route(key, n) == server_id
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_digest_snapshot_sees_every_fill_issued_before_the_resize(seed):
    async def body():
        async with cluster(3, pool_size=2) as stack:
            web = stack.web
            # Server 2 cedes on 3 -> 2; *hot* keys are cached there.
            keys = owned_by(web, 2, 3)
            hot, cold = keys[:8], keys[8:40]
            await web.fetch_many(hot)
            for round_ in range(8):
                miss = cold[round_ * 4:(round_ + 1) * 4]
                # The miss page's fill goes out on the first connection,
                await web.fetch_many(miss)
                # which a hit page then holds for its probe,
                hit = asyncio.ensure_future(web.fetch_many(hot))
                await asyncio.sleep(0)
                # so the digest snapshot goes out on the second one.
                await web.scale_to(2, ttl=TTL)
                await hit
                results = await web.fetch_many(miss)
                assert {r.path for r in results.values()} == {
                    FetchPath.HIT_OLD
                }, round_
                await asyncio.sleep(TTL)
                await web.scale_to(3, ttl=TTL)
                await asyncio.sleep(TTL)
                await web.fetch_many(hot)

    run(body(), seed)
