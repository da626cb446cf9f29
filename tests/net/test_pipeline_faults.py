"""Pipelined transport under fire: poisoning, no mispairing, parity.

With many commands in flight on one connection, a mid-stream fault is
worse than before: every queued command's reply is unattributable, not
just one.  These tests pin the pipelined contract:

* every queued future fails with :class:`~repro.errors.TransportError`
  (the transient class retry policies see) — never a wrong value;
* the one command whose reply was actually malformed gets
  :class:`~repro.errors.ProtocolError`;
* the connection is poisoned and the next call reconnects;
* a pooled/pipelined frontend returns results identical to the serial
  one (the regression guard for reply mispairing at the tier level).
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ProtocolError, TransportError
from repro.net.chaosproxy import ChaosProxy
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import FaultPlan, ResiliencePolicy

BLOOM = optimal_config(1000)


def run(coro):
    return asyncio.run(coro)


class ScriptedPipelineServer:
    """Accepts one connection, waits for *expect_lines* command lines,
    then writes a fixed byte script (optionally aborting after)."""

    def __init__(self, script, expect_lines, abort_after=False):
        self.script = script
        self.expect_lines = expect_lines
        self.abort_after = abort_after
        self.received = bytearray()
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        try:
            while self.received.count(b"\n") < self.expect_lines:
                data = await reader.read(4096)
                if not data:
                    return
                self.received += data
            writer.write(self.script)
            await writer.drain()
            if self.abort_after:
                writer.transport.abort()
            else:
                await reader.read()  # hold the connection open
        except (ConnectionError, OSError):
            pass

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


async def gather_outcomes(coros):
    return await asyncio.gather(*coros, return_exceptions=True)


class TestPipelinedReplies:
    def test_interleaved_hits_and_misses_pair_correctly(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            await server.start()
            try:
                async with MemcachedClient("127.0.0.1", server.port) as c:
                    for i in range(0, 10, 2):
                        await c.set(f"k{i}", f"v{i}".encode())
                    results = await asyncio.gather(
                        *(c.get(f"k{i}") for i in range(10))
                    )
                    for i, result in enumerate(results):
                        expected = f"v{i}".encode() if i % 2 == 0 else None
                        assert result == expected
            finally:
                await server.stop()

        run(body())

    def test_concurrent_commands_share_one_connection(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            await server.start()
            try:
                async with MemcachedClient("127.0.0.1", server.port) as c:
                    await asyncio.gather(
                        *(c.set(f"k{i}", b"v") for i in range(50))
                    )
                    assert server.connections == 1
                    assert c.reconnects == 0
            finally:
                await server.stop()

        run(body())


class TestMidPipelineFaults:
    def test_abort_fails_every_queued_future_transiently(self):
        async def body():
            # One good reply, then the connection dies with 4 queued.
            server = ScriptedPipelineServer(
                b"VALUE k0 0 2\r\nv0\r\nEND\r\n",
                expect_lines=5,
                abort_after=True,
            )
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            outcomes = await gather_outcomes(
                client.get(f"k{i}") for i in range(5)
            )
            assert outcomes[0] == b"v0"
            for outcome in outcomes[1:]:
                assert isinstance(outcome, TransportError)
            assert client.broken
            await server.stop()

        run(body())

    def test_desync_hits_head_only_rest_fail_transiently(self):
        async def body():
            # First reply is fine, second is garbage: the head of the
            # queue gets the protocol error, everything behind it the
            # transient class — and nothing is ever paired with the
            # garbage bytes.
            server = ScriptedPipelineServer(
                b"VALUE k0 0 2\r\nv0\r\nEND\r\nWAT 42\r\n",
                expect_lines=5,
            )
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            outcomes = await gather_outcomes(
                client.get(f"k{i}") for i in range(5)
            )
            assert outcomes[0] == b"v0"
            assert isinstance(outcomes[1], ProtocolError)
            for outcome in outcomes[2:]:
                assert isinstance(outcome, TransportError)
            assert client.broken
            await server.stop()

        run(body())

    def test_timeout_fails_every_queued_future(self):
        async def body():
            # The server answers one get and then goes silent.
            server = ScriptedPipelineServer(b"END\r\n", expect_lines=5)
            port = await server.start()
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.1
            ).connect()
            outcomes = await gather_outcomes(
                client.get(f"k{i}") for i in range(5)
            )
            assert outcomes[0] is None
            for outcome in outcomes[1:]:
                assert isinstance(outcome, TransportError)
            assert client.broken
            await server.stop()

        run(body())

    def test_slow_drip_burst_is_bounded_by_one_timeout(self):
        async def body():
            # One reply per 0.9 x timeout: every *gap* beats the timeout,
            # the burst does not.  Deadlines count from issue and a burst
            # shares one, so it fails after ~1 timeout, not after k gaps.
            timeout, burst = 0.3, 4
            hung_up = asyncio.Event()

            async def drip(reader, writer):
                await reader.read(4096)
                try:
                    for _ in range(burst):
                        await asyncio.sleep(0.9 * timeout)
                        if reader.at_eof():
                            break
                        writer.write(b"END\r\n")
                        await writer.drain()
                except (ConnectionError, OSError):
                    pass
                finally:
                    writer.close()
                    hung_up.set()

            server = await asyncio.start_server(drip, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=timeout
            ).connect()
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(TransportError, match="did not answer"):
                await client.get_many([f"k{i}" for i in range(burst)])
            assert loop.time() - started < 2 * timeout  # k gaps: 3.6x
            assert client.broken
            await asyncio.wait_for(hung_up.wait(), 5)
            server.close()
            await server.wait_closed()

        run(body())

    def test_chaos_reset_mid_pipeline_then_recovery(self):
        async def body():
            real = MemcachedServer(bloom_config=BLOOM)
            await real.start()
            proxy = ChaosProxy("127.0.0.1", real.port)
            await proxy.start()
            try:
                client = await MemcachedClient(
                    "127.0.0.1", proxy.port, timeout=1.0
                ).connect()
                for i in range(8):
                    await client.set(f"k{i}", f"v{i}".encode())
                # Every response chunk now resets the connection.
                proxy.set_plan(FaultPlan.flaky(reset_probability=1.0))
                outcomes = await gather_outcomes(
                    client.get(f"k{i}") for i in range(8)
                )
                for i, outcome in enumerate(outcomes):
                    # Correct value or transient failure — never a wrong
                    # value, never a ProtocolError.
                    if not isinstance(outcome, TransportError):
                        assert outcome == f"v{i}".encode()
                assert any(
                    isinstance(outcome, TransportError)
                    for outcome in outcomes
                )
                assert client.broken
                # Heal the path: the client reconnects and pairs again.
                proxy.set_plan(FaultPlan.none())
                results = await asyncio.gather(
                    *(client.get(f"k{i}") for i in range(8))
                )
                assert results == [f"v{i}".encode() for i in range(8)]
                assert client.reconnects >= 1
                await client.close()
            finally:
                await proxy.close()
                await real.stop()

        run(body())


class TestPooledParity:
    def test_pool_of_four_matches_pool_of_one(self):
        async def body():
            keys = [f"key:{i}" for i in range(64)]

            async def database(key):
                return f"db:{key}".encode()

            async def harvest(pool_size):
                servers = [MemcachedServer(bloom_config=BLOOM)
                           for _ in range(3)]
                for server in servers:
                    await server.start()
                frontend = AsyncProteusFrontend(
                    [("127.0.0.1", s.port) for s in servers],
                    BLOOM,
                    database,
                    resilience=ResiliencePolicy.aggressive(op_timeout=2.0),
                    pool_size=pool_size,
                )
                try:
                    async with frontend:
                        cold = await frontend.fetch_many(keys)
                        warm = await frontend.fetch_many(keys)
                        return (
                            {k: (r.value, str(r.path))
                             for k, r in cold.items()},
                            {k: (r.value, str(r.path))
                             for k, r in warm.items()},
                        )
                finally:
                    for server in servers:
                        await server.stop()

            single = await harvest(pool_size=1)
            pooled = await harvest(pool_size=4)
            assert pooled == single
            # and the values are the authoritative ones
            for k, (value, _path) in pooled[1].items():
                assert value == f"db:{k}".encode()

        run(body())
