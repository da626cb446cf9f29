"""The healthy cache RPC's loop shape, and what replaced the wrappers.

A 1-key page is one cache RPC, and a healthy RPC needs one reply future,
one coalesced flush and one wake-up — under every shipped policy — and
on the server one loop iteration with no handle, task or future at all.
The first half of this file is the gate that keeps it so: a counting
event loop around a warm frontend, then around a warm server,
deterministic handle counts, no clocks.  The second half pins what the
removed ``wait_for(shield(...))`` used to guarantee and the one
per-connection timer now does: cancellation drops the late reply without
mispairing, and the timer dies with the connection.  A coroutine that is
neither awaited nor closed fails the module (``RuntimeWarning`` is an
error here).
"""

import asyncio
import gc
import socket

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ConfigurationError, TransportError
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import ResiliencePolicy
from tests.conftest import LEAKED_COROUTINES_FAIL, until
from tests.net.scripted import ScriptedClient, ScriptedPool

pytestmark = LEAKED_COROUTINES_FAIL

BLOOM = optimal_config(1000)

#: loop handles one healthy cache RPC may schedule on the client side:
#: the coalesced flush and the reply future's wake-up (a multi-server
#: round wakes its page at most once per RPC: a reply that is already in
#: when the page gets to it costs no handle)
CALL_SOON_PER_RPC = 2

#: op timeouts long enough that no stall of the test machine lets the
#: connection timer fire (and re-arm) inside a counted window
POLICIES = {
    "default": ResiliencePolicy.default,
    "aggressive": lambda: ResiliencePolicy.aggressive(op_timeout=30.0),
    "overload_armor": lambda: ResiliencePolicy.overload_armor(
        op_timeout=30.0
    ),
}


class CountingLoop(asyncio.SelectorEventLoop):
    """Counts the handles, tasks and futures created, and the loop
    iterations begun, while ``counting`` is on."""

    def __init__(self):
        super().__init__()
        self.counting = False
        self.soon = self.timers = self.tasks = 0
        self.futures = self.iterations = 0

    def call_soon(self, callback, *args, context=None):
        self.soon += self.counting
        return super().call_soon(callback, *args, context=context)

    def call_at(self, when, callback, *args, context=None):
        self.timers += self.counting
        return super().call_at(when, callback, *args, context=context)

    def create_task(self, coro, **kwargs):
        self.tasks += self.counting
        return super().create_task(coro, **kwargs)

    def create_future(self):
        self.futures += self.counting
        return super().create_future()

    def _run_once(self):
        self.iterations += self.counting
        super()._run_once()

    def count(self):
        self.soon = self.timers = self.tasks = 0
        self.futures = self.iterations = 0
        self.counting = True

    def stop_counting(self):
        self.counting = False
        return self.soon, self.timers, self.tasks


async def _database(key):
    return f"db:{key}".encode()


def counted(policy, servers, pages, warm, loop=None):
    """Handle counts of *pages* fetched one after another on a frontend
    that has already fetched *warm* (pass a *loop* to read its other
    counters afterwards).

    The servers share the counting loop.  A request costs a server no
    handle, task or future (``TestServerLoopShape``), so every count is
    the client's; and loopback delivers a write before the next
    ``select``, so the iterations do not depend on how a second thread
    happens to be scheduled."""
    loop = loop or CountingLoop()

    async def body():
        members = [MemcachedServer(bloom_config=BLOOM) for _ in range(servers)]
        endpoints = [("127.0.0.1", await s.start()) for s in members]
        frontend = AsyncProteusFrontend(
            endpoints, BLOOM, _database, resilience=policy, pool_size=1
        )
        try:
            async with frontend:
                for _ in range(2):  # miss + write-back, then the first hit
                    await frontend.fetch_many(warm)
                loop.count()
                for page in pages:
                    results = await frontend.fetch_many(page)
                    assert all(r.path == "hit_new" for r in results.values())
                return loop.stop_counting()
        finally:
            for server in members:
                await server.stop()

    try:
        return loop.run_until_complete(body())
    finally:
        loop.close()


class TestLoopShape:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_a_healthy_one_key_page_is_one_future_and_one_flush(self, name):
        keys = [f"page:{i}" for i in range(10)]
        soon, timers, tasks = counted(
            POLICIES[name](), 3, [(key,) for key in keys], keys
        )
        assert tasks == 0  # a round of one is awaited, not gathered
        assert timers == 0  # the armed connection timer is reused
        assert soon == CALL_SOON_PER_RPC * len(keys)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_a_multi_server_page_costs_one_task_per_server(self, name):
        keys = [f"page:{i}" for i in range(64)]
        pages = 5
        loop = CountingLoop()
        soon, timers, tasks = counted(
            POLICIES[name](), 3, [keys] * pages, keys, loop
        )
        iterations = loop.iterations
        assert tasks == 0  # the round runs on the page's own task
        assert timers == 0
        # 64 keys address all three servers: three flushes, one to three
        # wake-ups, and the page is done in fewer than six loop turns
        assert 4 * pages <= soon <= 3 * CALL_SOON_PER_RPC * pages
        assert iterations < 6 * pages


def raw_requests(port, requests):
    """Blocking socket client (runs on a thread): warm ``k``, then
    *requests* lock-step ``get k`` between two ``version`` commands that
    open and close the server loop's counting window in-band."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:

        def rpc(command, reply):
            sock.sendall(command)
            got = b""
            while len(got) < len(reply):
                chunk = sock.recv(4096)
                assert chunk, "server closed the connection"
                got += chunk
            assert got == reply

        hit = b"VALUE k 0 1\r\nv\r\nEND\r\n"
        rpc(b"set k 0 0 1\r\nv\r\n", b"STORED\r\n")
        for _ in range(3):
            rpc(b"get k\r\n", hit)
        version = b"VERSION proteus-repro 1.0.0\r\n"
        rpc(b"version\r\n", version)  # opens the window
        for _ in range(requests):
            rpc(b"get k\r\n", hit)
        rpc(b"version\r\n", version)  # closes it


class TestServerLoopShape:
    REQUESTS = 200

    def test_a_request_is_one_loop_iteration_and_nothing_else(self):
        loop = CountingLoop()
        server = MemcachedServer(bloom_config=BLOOM)
        dispatch = server._dispatch

        def marking_dispatch(request):
            # Runs on the loop, inside the request's own iteration, so
            # the window's edges cannot race the client thread.
            if request.command == "version":
                if loop.counting:
                    loop.stop_counting()
                else:
                    loop.count()
            return dispatch(request)

        server._dispatch = marking_dispatch

        async def body():
            port = await server.start()
            try:
                await loop.run_in_executor(
                    None, raw_requests, port, self.REQUESTS
                )
            finally:
                await server.stop()

        try:
            loop.run_until_complete(body())
        finally:
            loop.close()
        assert (loop.soon, loop.timers, loop.tasks) == (0, 0, 0)
        assert loop.futures == 0
        # + the iteration of the ``version`` that closed the window
        assert loop.iterations == self.REQUESTS + 1
        assert server.inflight == 0


class GatedServer:
    """Answers every ``get <key>`` with a hit whose value names the key,
    but only once :attr:`gate` is set — replies held, order kept."""

    def __init__(self):
        self.gate = asyncio.Event()
        self.lines = 0
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line or line.startswith(b"quit"):
                    return
                self.lines += 1
                key = line.split()[1]
                await self.gate.wait()
                value = b"value-of-" + key
                writer.write(
                    b"VALUE %s 0 %d\r\n%s\r\nEND\r\n"
                    % (key, len(value), value)
                )
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


class TestCancellationWithoutShield:
    @pytest.mark.parametrize("name", ["default", "aggressive"])
    def test_cancelled_fetch_drops_its_late_reply(self, name):
        async def body():
            server = GatedServer()
            port = await server.start()
            frontend = AsyncProteusFrontend(
                [("127.0.0.1", port)], BLOOM, _database,
                resilience=POLICIES[name](), pool_size=1,
            )
            async with frontend:
                pool = frontend.transport.pools[0]
                client = await pool.prewarm()
                doomed = asyncio.ensure_future(frontend.fetch_many(["a"]))
                await until(lambda: server.lines == 1)
                reply = client._protocol.pending[0]
                doomed.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                # The reply future itself was cancelled; its slot stays
                # queued so the late reply is consumed in order.
                assert reply.cancelled()
                assert client.inflight == 1
                assert pool.leases == 0
                assert not client.broken
                following = asyncio.ensure_future(frontend.fetch_many(["b"]))
                await until(lambda: client.inflight == 2)
                server.gate.set()
                results = await following
                assert results["b"].value == b"value-of-b"  # never a's
                assert client.inflight == 0
                assert pool.leases == 0
                assert not client.broken
                assert client.reconnects == 0 and pool.ejections == 0
            await server.stop()

        asyncio.run(body())

    def test_cancelled_burst_cancels_every_reply_at_once(self):
        async def body():
            server = GatedServer()
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            burst = asyncio.ensure_future(client.get_many(["a", "b", "c"]))
            await until(lambda: server.lines == 1)
            burst.cancel()
            try:
                # Promptly — the server is still silent, so a cancel that
                # waited for the other replies would never finish.
                done, _ = await asyncio.wait({burst}, timeout=5)
                assert done and burst.cancelled()
                assert client.inflight == 1  # the burst's one reply
            finally:
                server.gate.set()
            assert await client.get("d") == b"value-of-d"
            assert client.inflight == 0 and not client.broken
            await client.close()
            await server.stop()

        asyncio.run(body())


class TestAFailedPageLeavesNothingRunning:
    def test_leases_and_server_inflight_return_to_zero(self):
        """The third server's probe fails fatally once the other two are
        on the wire: they are cancelled, their late replies are dropped in
        order, and nothing stays leased, counted or queued anywhere."""

        async def body():
            servers = [MemcachedServer(bloom_config=BLOOM) for _ in range(3)]
            endpoints = [("127.0.0.1", await s.start()) for s in servers]
            frontend = AsyncProteusFrontend(
                endpoints, BLOOM, _database, pool_size=1,
                resilience=ResiliencePolicy.aggressive(op_timeout=30.0),
            )
            keys = [f"page:{i}" for i in range(64)]
            async with frontend:
                await frontend.fetch_many(keys)
                transport = frontend.transport
                healthy = transport.pools[2]
                transport.pools[2] = ScriptedPool(
                    ScriptedClient(ConfigurationError("misconfigured"))
                )
                with pytest.raises(ConfigurationError, match="misconfigured"):
                    await frontend.fetch_many(keys)
                assert [pool.leases for pool in transport.pools] == [0, 0, 0]
                clients = [pool._conns[0] for pool in transport.pools[:2]]
                await until(lambda: not any(c.inflight for c in clients))
                await until(lambda: not any(s.inflight for s in servers))
                assert not any(c.broken for c in clients)
                transport.pools[2] = healthy
                results = await frontend.fetch_many(keys)
                assert all(r.path == "hit_new" for r in results.values())
            for server in servers:
                await server.stop()
            gc.collect()

        asyncio.run(body())


class TestTimerLifetime:
    def test_close_with_commands_queued_cancels_the_timer(self):
        async def body():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            server = GatedServer()
            port = await server.start()
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.05
            ).connect()
            protocol = client._protocol
            queued = asyncio.ensure_future(client.get("a"))
            await until(lambda: server.lines == 1)
            timer = protocol._timer
            assert timer is not None and len(protocol.due) == 1
            await client.close()
            assert timer.cancelled() and protocol._timer is None
            assert not protocol.due and not protocol.pending
            with pytest.raises(TransportError, match="closed while in"):
                await queued
            await asyncio.sleep(0.1)  # well past the op timeout
            assert protocol._timer is None  # nothing re-armed itself
            assert not client.broken  # closed, never poisoned
            del queued
            gc.collect()
            assert unhandled == []  # no "exception was never retrieved"
            server.gate.set()
            await server.stop()

        asyncio.run(body())

    def test_an_idle_connection_disarms_and_the_next_command_rearms(self):
        async def body():
            server = GatedServer()
            server.gate.set()
            port = await server.start()
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.05
            ).connect()
            protocol = client._protocol
            assert protocol._timer is None  # nothing queued, nothing armed
            assert await client.get("a") == b"value-of-a"
            first = protocol._timer
            assert first is not None and not protocol.due
            await until(lambda: protocol._timer is None)  # fired idle
            assert not client.broken
            assert await client.get("b") == b"value-of-b"
            assert protocol._timer is not None
            assert protocol._timer is not first
            await client.close()
            await server.stop()

        asyncio.run(body())
