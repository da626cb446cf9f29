"""A server that joins on a scale-up starts empty, on the virtual loop.

The paper powers a drained server off after the TTL (§IV), so it comes
back with no data.  A live ``MemcachedServer`` stays up when routing stops
sending it requests, and a ``put`` made while it is outside the
active-or-draining prefix does not reach it.  Were a scale-up only to flip
routing, the copy it kept from before it drained would be served as a
``HIT_NEW``.  ``scale_to`` therefore flushes every joining server before
routing flips, all-or-nothing with the digest broadcast.
"""

import asyncio

import pytest

from repro import obs
from repro.errors import DigestBroadcastError
from repro.resilience import FaultPlan
from tests.simnet import POLICY, cluster, run

TTL = 30.0


def owned_by(web, server_id, n):
    """The first ``page:i`` key *server_id* owns at *n* active servers."""
    return next(
        key for key in (f"page:{i}" for i in range(1000))
        if web.router.route(key, n) == server_id
    )


async def resize(web, n):
    """Scale to *n* and let the drain window close."""
    await web.scale_to(n, ttl=TTL)
    await asyncio.sleep(TTL + 1.0)


def test_a_scale_up_never_serves_what_a_joining_server_kept():
    rows = {}

    async def database(key):
        return rows[key]

    async def body():
        async with cluster(database=database) as stack:
            web = stack.web
            key = owned_by(web, 2, 3)
            rows[key] = b"v1"
            assert (await web.fetch(key)).value == b"v1"  # cached on server 2
            await resize(web, 2)
            rows[key] = b"v2"
            await web.put(key, b"v2")  # server 2 is outside the prefix
            await resize(web, 3)  # server 2 owns the key again
            result = await web.fetch(key)
            assert result.value == b"v2", result.path
            assert result.path == "miss_db"  # server 2 came back empty

    run(body())


def test_an_unflushable_joining_server_rolls_routing_back():
    async def body():
        async with cluster() as stack:
            web = stack.web
            await resize(web, 2)
            stack.set_plan(2, FaultPlan.killed())
            with obs.recording() as timeline:
                with pytest.raises(DigestBroadcastError) as excinfo:
                    await web.scale_to(3, ttl=TTL)
            assert list(excinfo.value.failures) == [2]
            # one rollback naming the dead server; nothing began (the
            # timeline also holds the 3 -> 2 window the call closed)
            [rollback] = timeline.of("transition.rollback")
            assert rollback.fields == {"n_old": 2, "n_new": 3, "failed": [2]}
            assert timeline.of("transition.begin") == []
            # rolled back: no drain window armed, routing unchanged
            assert web.n_active == 2
            assert not web._manager.routing_counts(
                stack.loop.time()
            ).in_transition
            # heal and retry: the same call now succeeds
            stack.set_plan(2, FaultPlan.none())
            await asyncio.sleep(POLICY.breaker_reset)
            transition = await web.scale_to(3, ttl=TTL)
            assert transition.n_new == 3
            assert web.n_active == 3

    run(body())
