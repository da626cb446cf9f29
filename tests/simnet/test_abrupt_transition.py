"""An abrupt transition and a no-op resize on the live tier, on the
virtual loop.

Table II's Naive and Consistent baselines resize without Proteus's digest
broadcast and drain window.  On the live frontend that is
``scale_to(n, ttl=0)``: routing flips at once and no digest is fetched,
but a joining server is still emptied before it is routed to.  A resize
to the current size is no transition at all, as in the simulator.
"""

import asyncio

from repro import obs
from tests.simnet import cluster, run

RPCS = ("digest", "flush", "get_multi", "set_multi", "delete_multi")


class CountingTransport:
    """The real transport, logging each cache RPC as ``(verb, server)``."""

    def __init__(self, real):
        self.real = real
        self.calls = []
        for verb in RPCS:
            setattr(self, verb, self._counted(verb))

    def __getattr__(self, name):
        return getattr(self.real, name)

    def _counted(self, verb):
        async def call(server_id, *args, **kwargs):
            self.calls.append((verb, server_id))
            return await getattr(self.real, verb)(server_id, *args, **kwargs)
        return call


def owned_by(web, server_id, n):
    """The first ``page:i`` key *server_id* owns at *n* active servers."""
    return next(
        key for key in (f"page:{i}" for i in range(1000))
        if web.router.route(key, n) == server_id
    )


def test_a_zero_ttl_resize_flips_routing_with_no_digest():
    async def body():
        async with cluster() as stack:
            web = stack.web
            key = owned_by(web, 2, 3)
            await web.fetch(key)  # cached on server 2
            transport = web.transport = CountingTransport(web.transport)
            with obs.recording() as timeline:
                down = await web.scale_to(2, ttl=0.0)
                now = stack.loop.time()
                assert transport.calls == []  # no digest on a scale-down
                assert web._manager.routing_counts(now).old is None
                await asyncio.sleep(1.0)
                up = await web.scale_to(3, ttl=0.0)
                assert transport.calls == [("flush", 2)]  # joiner emptied
                assert web._manager.routing_counts(now + 1.0).old is None
            assert (down.started_at, up.started_at) == (now, now + 1.0)
            assert [(e.t, e.kind, e.fields) for e in timeline.events] == [
                (now, "transition.begin",
                 {"n_old": 3, "n_new": 2, "smooth": False, "digests": []}),
                (now, "transition.end",
                 {"n_old": 3, "n_new": 2, "powered_off": [2]}),
                (now + 1.0, "transition.begin",
                 {"n_old": 2, "n_new": 3, "smooth": False, "digests": []}),
                (now + 1.0, "transition.end",
                 {"n_old": 2, "n_new": 3, "powered_off": []}),
            ]
            # server 2 came back empty: its old copy is not served
            assert (await web.fetch(key)).path == "miss_db"

    run(body())


def test_a_same_size_resize_is_a_noop_with_no_rpc():
    async def body():
        async with cluster() as stack:
            web = stack.web
            transport = web.transport = CountingTransport(web.transport)
            with obs.recording() as timeline:
                assert await web.scale_to(3, ttl=30.0) is None
                assert transport.calls == []
                # ... also while a window is open: a repeated count is no
                # overlap
                await web.scale_to(2, ttl=30.0)
                calls = list(transport.calls)
                assert await web.scale_to(2, ttl=30.0) is None
                assert transport.calls == calls
            assert [e.kind for e in timeline.events] == ["transition.begin"]

    run(body())
