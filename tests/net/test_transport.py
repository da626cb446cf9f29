"""CacheTransport: the one armored RPC path of the live tier.

Every cache RPC — ``get_multi``/``set_multi``/``delete_multi`` for the
engine's read and write plans, ``digest`` for the broadcast — runs through
``_call``:

* an open circuit refuses without dialling; fatal errors propagate;
* ``get_multi``/``set_multi``/``delete_multi`` degrade per policy,
  ``digest`` always raises — and all feed the same breaker and counters;
* the frontend reaches the servers only through ``web.transport``, so a
  fake replaces the whole path.

The overload half (sheds never retried, expired deadlines) is in
``tests/net/test_overload_armor.py``.  No sockets anywhere here: see
:mod:`tests.net.scripted`.
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.core.retrieval import SERVER_UNAVAILABLE
from repro.errors import (
    ConfigurationError,
    DigestBroadcastError,
    TransportError,
)
from repro.net import protocol as proto
from repro.net.transport import CacheTransport
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import BreakerState, CircuitBreaker, ResiliencePolicy
from tests.net.scripted import ScriptedClient, ScriptedPool, make, trip

CFG = optimal_config(2000)


def run(coro):
    return asyncio.run(coro)


class TestRefusalsAndPropagation:
    def test_open_circuit_refuses_without_dialling(self):
        async def body():
            transport, pool, _ = make(TransportError("unreached"))
            trip(transport)
            assert await transport.get_multi(0, ["k"]) is SERVER_UNAVAILABLE
            assert pool.acquires == 0
            assert transport.unavailable_rpcs == 1
            assert transport.transient_failures == 0

        run(body())

    def test_fatal_errors_propagate_unretried(self):
        async def body():
            transport, _, client = make(ConfigurationError("bad key"))
            with pytest.raises(ConfigurationError):
                await transport.get_multi(0, ["k"])
            assert client.exchanges == 1
            unconnected = CacheTransport(
                [("127.0.0.1", 1)], ResiliencePolicy.default()
            )
            with pytest.raises(ConfigurationError, match="connect"):
                await unconnected.get_multi(0, ["k"])

        run(body())

    def test_without_degrade_the_last_error_propagates(self):
        async def body():
            transport, _, client = make(TransportError("reset"))
            with pytest.raises(TransportError, match="reset"):
                await transport.digest(0, CFG)
            assert client.exchanges == 3

        run(body())


class TestFillsAreIssuedNotAwaited:
    """A read's fill is a plain call that answers at once: it never
    dials, never retries, and never takes a half-open circuit's one
    trial, which it could not report back on."""

    def test_a_fill_with_no_live_stream_is_refused_without_dialling(self):
        async def body():
            transport, pool, client = make(TransportError("unreached"))
            settled = []
            assert transport.fill(
                0, [("k", b"v")], then=lambda: settled.append("k")
            ) is SERVER_UNAVAILABLE
            assert settled == ["k"]  # its leaders need not wait
            assert (client.exchanges, pool.leases) == (0, 0)
            assert transport.unavailable_rpcs == 1
            assert transport.transient_failures == 0

        run(body())

    def test_a_half_open_circuit_keeps_its_trial_for_an_rpc(self):
        async def body():
            now = [0.0]
            transport, pool, client = make({"k": b"v"})
            breaker = transport.breakers[0] = CircuitBreaker(
                failure_threshold=1, reset_timeout=1.0, clock=lambda: now[0]
            )
            breaker.record_failure()
            now[0] = 2.0  # open -> half-open
            assert transport.fill(0, [("k", b"v")]) is SERVER_UNAVAILABLE
            assert pool.acquires == 0
            # The trial is still there: the next probe takes it, and its
            # reply closes the circuit.
            assert await transport.get_multi(0, ["k"]) == {"k": b"v"}
            assert breaker.state() is BreakerState.CLOSED

        run(body())


def rpc_call(transport, rpc):
    """One call of *rpc* on server 0: a put's write or delete, or the
    digest fetch."""
    if rpc == "set_multi":
        return transport.set_multi(0, [("k", b"v")])
    if rpc == "delete_multi":
        return transport.delete_multi(0, ["k"])
    return transport.digest(0, CFG)


class TestSetAndDigestRideTheSameArmor:
    """A ``put``'s ``set_multi`` / ``delete_multi`` and the digest
    broadcast ride breaker and counters like every probe; the
    digest raises, the writes answer ``SERVER_UNAVAILABLE``."""

    def test_open_circuit_raises_without_dialling(self):
        async def body():
            transport, pool, _ = make(TransportError("unreached"))
            trip(transport)
            with pytest.raises(TransportError, match="circuit open"):
                await rpc_call(transport, "digest")
            for rpc in ("set_multi", "delete_multi"):
                assert await rpc_call(transport, rpc) is SERVER_UNAVAILABLE
            assert pool.acquires == 0
            assert transport.unavailable_rpcs == 3

        run(body())

    @pytest.mark.parametrize("rpc", ["set_multi", "delete_multi", "digest"])
    def test_failures_feed_the_breaker_and_the_counters(self, rpc):
        async def body():
            transport, pool, client = make(
                TransportError("reset"), breaker_failures=2
            )
            if rpc == "digest":
                with pytest.raises(TransportError, match="reset"):
                    await rpc_call(transport, rpc)
            else:
                assert await rpc_call(transport, rpc) is SERVER_UNAVAILABLE
            # Two transients trip the 2-failure breaker, which stops the
            # third attempt.
            assert client.exchanges == 2
            assert transport.transient_failures == 2
            assert transport.breakers[0].trips == 1
            assert transport.unavailable_rpcs == 1
            assert pool.leases == 0

        run(body())

    def test_set_is_retried_until_it_lands(self):
        async def body():
            transport, _, client = make(TransportError("reset"), 1)
            assert await transport.set_multi(0, [("k", b"v")]) == 1
            assert client.exchanges == 2
            assert transport.breakers[0]._consecutive_failures == 0

        run(body())

    def test_delete_is_retried_until_it_lands(self):
        async def body():
            transport, _, client = make(TransportError("reset"), 1)
            assert await transport.delete_multi(0, ["k"]) == 1
            assert client.exchanges == 2  # one key: one exchange a try
            assert transport.breakers[0]._consecutive_failures == 0

        run(body())

    def test_digest_retries_snapshot_and_fetch_as_a_unit(self):
        async def body():
            ack = {proto.KEY_SNAPSHOT: b"1"}
            bits = CFG.build().snapshot().to_bytes()
            payload = {proto.KEY_FETCH_DIGEST: bits}
            transport, pool, client = make(
                ack, TransportError("reset"), ack, payload
            )
            digest = await transport.digest(0, CFG)
            assert digest.to_bytes() == bits  # CFG's geometry, as fetched
            assert client.exchanges == 4  # snapshot, fetch✗, snapshot, fetch
            assert pool.acquires == 2 and pool.leases == 0

        run(body())


class TestFrontendRoutesEverythingThroughTheTransport:
    @staticmethod
    def frontend():
        async def db(key):
            return b"v"

        return AsyncProteusFrontend(
            [("127.0.0.1", 1), ("127.0.0.1", 2)], CFG, db
        )

    def test_put_to_an_open_circuit_raises_without_dialling(self):
        async def body():
            web = self.frontend()
            pools = web.transport.pools
            pools[:] = [
                ScriptedPool(ScriptedClient(0)) for _ in range(2)
            ]
            owner = web.router.route("k", 2)
            trip(web.transport, owner)
            with pytest.raises(
                TransportError, match=rf"servers \[{owner}\] unavailable"
            ):
                await web.put("k", b"v")
            assert pools[owner].acquires == 0

        run(body())

    def test_put_writes_the_owner_and_deletes_every_other_copy(self):
        class Recording:
            def __init__(self):
                self.calls = []

            async def set_multi(self, server_id, items, deadline=None):
                self.calls.append(("set", server_id, tuple(items)))

            async def delete_multi(self, server_id, keys, deadline=None):
                self.calls.append(("delete", server_id, tuple(keys)))

        async def body():
            web = self.frontend()
            web.transport = Recording()
            key = next(
                k for k in (f"k{i}" for i in range(50))
                if web.router.route(k, 2) == 1
            )
            await web.put(key, b"v")
            # Server 0 owns every key at one active server: the copy a
            # resize to 1 would serve is deleted in the same round.
            assert web.transport.calls == [
                ("set", 1, ((key, b"v"),)), ("delete", 0, (key,)),
            ]

        run(body())

    def test_open_circuit_on_a_ceding_owner_rolls_the_resize_back(self):
        async def body():
            web = self.frontend()
            web.transport.pools[:] = [ScriptedPool(), ScriptedPool()]
            trip(web.transport, 1)  # server 1 cedes on 2 -> 1
            with pytest.raises(DigestBroadcastError) as excinfo:
                await web.scale_to(1, ttl=30.0)
            assert list(excinfo.value.failures) == [1]
            assert web.transport.pools[1].acquires == 0
            assert web.n_active == 2
            assert not web._manager.routing_counts(0.0).in_transition

        run(body())

    def test_a_fake_transport_replaces_the_whole_rpc_path(self):
        class Fake:
            def __init__(self):
                self.store = {}

            async def get_multi(self, server_id, keys, deadline=None):
                return {k: self.store[k] for k in keys if k in self.store}

            async def set_multi(self, server_id, items, deadline=None):
                self.store.update(items)

            def fill(self, server_id, items, deadline=None, then=None):
                for key, value in items:  # add: only what is absent
                    self.store.setdefault(key, value)
                if then is not None:
                    then()

        async def body():
            web = self.frontend()
            web.transport = Fake()
            assert (await web.fetch("k")).path == "miss_db"
            assert (await web.fetch("k")).path == "hit_new"

        run(body())
