"""Pipelined transport under fire: poisoning, no mispairing, parity.

With many commands in flight on one connection, a mid-stream fault is
worse than before: every queued command's reply is unattributable, not
just one.  These tests pin the pipelined contract, on the virtual network
(every reply stream re-chunked at seeded random offsets):

* every queued future fails with :class:`~repro.errors.TransportError`
  (the transient class retry policies see) — never a wrong value;
* the one command whose reply was actually malformed gets
  :class:`~repro.errors.ProtocolError`;
* the connection is poisoned and the next call reconnects;
* a reply deadline counts from issue, one per burst;
* a pooled frontend returns results identical to a one-connection one
  (the regression guard for reply mispairing at the tier level).
"""

import asyncio

import pytest

from repro.errors import ProtocolError, TransportError
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer
from repro.resilience import FaultPlan, ResiliencePolicy
from tests.simnet import BLOOM, cluster, run, value_of


async def scripted_server(script, expect_lines, abort_after=False):
    """A server that waits for *expect_lines* command lines on its one
    connection, then writes a fixed byte *script* (and aborts after, or
    holds the connection until the client goes)."""

    async def handle(reader, writer):
        received = bytearray()
        try:
            while received.count(b"\n") < expect_lines:
                data = await reader.read(4096)
                if not data:
                    return
                received += data
            writer.write(script)
            await writer.drain()
            if abort_after:
                writer.transport.abort()
            else:
                await reader.read()
        except ConnectionError:
            pass

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server.sockets[0].getsockname()[1]


async def outcomes_of(coros):
    return await asyncio.gather(*coros, return_exceptions=True)


async def settle():
    """Let the resets of a poisoned connection reach the other end."""
    await asyncio.sleep(0.01)


class TestPipelinedReplies:
    def test_interleaved_hits_and_misses_pair_correctly(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            async with MemcachedClient("127.0.0.1", await server.start()) as c:
                for i in range(0, 10, 2):
                    await c.set(f"k{i}", f"v{i}".encode())
                results = await asyncio.gather(
                    *(c.get(f"k{i}") for i in range(10))
                )
                for i, result in enumerate(results):
                    assert result == (f"v{i}".encode() if i % 2 == 0 else None)
            await server.stop()

        run(body())

    def test_concurrent_commands_share_one_connection(self):
        async def body():
            server = MemcachedServer(bloom_config=BLOOM)
            async with MemcachedClient("127.0.0.1", await server.start()) as c:
                await asyncio.gather(
                    *(c.set(f"k{i}", b"v") for i in range(50))
                )
                assert server.connections == 1
                assert c.reconnects == 0
            await server.stop()

        run(body())


class TestMidPipelineFaults:
    def test_abort_fails_every_queued_future_transiently(self):
        async def body():
            # One good reply, then the connection dies with 4 queued.
            port = await scripted_server(
                b"VALUE k0 0 2\r\nv0\r\nEND\r\n", expect_lines=5,
                abort_after=True,
            )
            client = await MemcachedClient("127.0.0.1", port).connect()
            outcomes = await outcomes_of(client.get(f"k{i}") for i in range(5))
            assert outcomes[0] == b"v0"
            for outcome in outcomes[1:]:
                assert isinstance(outcome, TransportError)
            assert client.broken

        run(body())

    def test_desync_hits_head_only_rest_fail_transiently(self):
        async def body():
            # First reply is fine, second is garbage: the head of the
            # queue gets the protocol error, everything behind it the
            # transient class — and nothing is ever paired with the
            # garbage bytes.
            port = await scripted_server(
                b"VALUE k0 0 2\r\nv0\r\nEND\r\nWAT 42\r\n", expect_lines=5
            )
            client = await MemcachedClient("127.0.0.1", port).connect()
            outcomes = await outcomes_of(client.get(f"k{i}") for i in range(5))
            assert outcomes[0] == b"v0"
            assert isinstance(outcomes[1], ProtocolError)
            for outcome in outcomes[2:]:
                assert isinstance(outcome, TransportError)
            assert client.broken
            await settle()

        run(body())

    def test_timeout_fails_every_queued_future(self):
        async def body():
            # The server answers one get and then goes silent.
            loop = asyncio.get_running_loop()
            port = await scripted_server(b"END\r\n", expect_lines=5)
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.1
            ).connect()
            started = loop.time()
            outcomes = await outcomes_of(client.get(f"k{i}") for i in range(5))
            assert loop.time() == started + 0.1
            assert outcomes[0] is None
            for outcome in outcomes[1:]:
                assert isinstance(outcome, TransportError)
            assert client.broken
            await settle()

        run(body())

    @pytest.mark.parametrize("seed", range(3))
    def test_slow_drip_burst_is_bounded_by_one_timeout(self, seed):
        async def body():
            # One reply per 0.9 x timeout: every *gap* beats the timeout,
            # the burst does not.  Deadlines count from issue and a burst
            # shares one, so it fails at exactly one timeout, not after k
            # gaps.
            timeout, burst = 0.3, 4
            hung_up = asyncio.Event()

            async def drip(reader, writer):
                await reader.read(4096)
                try:
                    for _ in range(burst):
                        await asyncio.sleep(0.9 * timeout)
                        writer.write(b"END\r\n")
                        await writer.drain()
                except ConnectionError:
                    pass
                finally:
                    writer.close()
                    hung_up.set()

            server = await asyncio.start_server(drip, "127.0.0.1", 0)
            client = await MemcachedClient(
                "127.0.0.1", server.sockets[0].getsockname()[1],
                timeout=timeout,
            ).connect()
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(TransportError, match="did not answer"):
                await client.get_many([f"k{i}" for i in range(burst)])
            assert loop.time() == started + timeout
            assert client.broken
            await hung_up.wait()
            server.close()

        run(body(), seed)

    def test_chaos_reset_mid_pipeline_then_recovery(self):
        async def body():
            loop = asyncio.get_running_loop()
            server = MemcachedServer(bloom_config=BLOOM)
            port = await server.start()
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=1.0
            ).connect()
            for i in range(8):
                await client.set(f"k{i}", f"v{i}".encode())
            # Every reply now resets the connection.
            loop.set_plan(port, FaultPlan.flaky(reset_probability=1.0))
            outcomes = await outcomes_of(client.get(f"k{i}") for i in range(8))
            for i, outcome in enumerate(outcomes):
                # Correct value or transient failure — never a wrong
                # value, never a ProtocolError.
                if not isinstance(outcome, TransportError):
                    assert outcome == f"v{i}".encode()
            assert any(isinstance(o, TransportError) for o in outcomes)
            assert client.broken
            # Heal the path: the client reconnects and pairs again.
            loop.set_plan(port, FaultPlan.none())
            results = await asyncio.gather(
                *(client.get(f"k{i}") for i in range(8))
            )
            assert results == [f"v{i}".encode() for i in range(8)]
            assert client.reconnects >= 1
            await client.close()
            await server.stop()

        run(body())


class TestPooledParity:
    def test_pool_of_four_matches_pool_of_one(self):
        keys = [f"key:{i}" for i in range(64)]
        policy = ResiliencePolicy.aggressive(op_timeout=2.0)

        async def harvest(pool_size):
            async with cluster(3, policy, pool_size=pool_size) as stack:
                pages = [await stack.web.fetch_many(keys) for _ in range(2)]
                return [
                    {k: (r.value, str(r.path)) for k, r in page.items()}
                    for page in pages
                ]

        single = run(harvest(pool_size=1))
        pooled = run(harvest(pool_size=4))
        assert pooled == single
        # and the values are the authoritative ones
        for key, (value, _path) in pooled[1].items():
            assert value == value_of(key)


class TestFlowControl:
    def test_a_client_that_stops_reading_holds_the_server_inflight(self):
        async def body():
            # A reply bigger than the peer's buffers and the write high
            # water pauses the server's writes (and its reads); the
            # commands it answered stay in flight until the client reads.
            server = MemcachedServer(bloom_config=BLOOM)
            client = await MemcachedClient(
                "127.0.0.1", await server.start()
            ).connect()
            [connection] = server._open
            connection.transport.set_write_buffer_limits(high=1024)
            value = b"x" * (300 * 1024)
            await client.set("big", value)
            client._protocol.transport.pause_reading()
            reply = asyncio.ensure_future(client.get("big"))
            await asyncio.sleep(0.01)
            assert server.inflight == 1
            assert connection.write_paused
            client._protocol.transport.resume_reading()
            assert await reply == value
            assert server.inflight == 0 and not connection.write_paused
            await client.close()
            await server.stop()

        run(body())
