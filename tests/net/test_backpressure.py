"""Server-side backpressure: inflight caps, busy sheds, paused reads.

The overload contract on the wire: a command over the server's global
``max_inflight`` cap is answered ``SERVER_ERROR busy ...`` in its reply
slot — a *well-formed* error line, so the stream stays framed and later
pipelined commands still get their own replies.  Clients surface it as
:class:`~repro.errors.ServerBusyError`, which the retry policy refuses
to retry (shed replies must not amplify into retry storms).
"""

import asyncio
import socket

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ConfigurationError, ServerBusyError
from repro.net import protocol as proto
from repro.net.client import MemcachedClient
from repro.net.parser import ErrorLine
from repro.net.server import MemcachedServer
from repro.resilience import RetryPolicy
from tests.conftest import until

CFG = optimal_config(500)


def run(coro):
    return asyncio.run(coro)


async def with_raw_server(test_body, **server_kwargs):
    server_kwargs.setdefault("bloom_config", CFG)
    server = MemcachedServer(**server_kwargs)
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        await test_body(server, reader, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await server.stop()


class TestValidation:
    def test_caps_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MemcachedServer(bloom_config=CFG, max_inflight=0)


class TestGlobalInflightCap:
    def test_burst_over_the_cap_is_shed_with_busy_lines(self):
        async def body(server, reader, writer):
            # One TCP segment carrying 5 pipelined gets against a cap of
            # 2: the first 2 dispatch, the excess 3 are shed in place.
            writer.write(b"get k\r\n" * 5)
            await writer.drain()
            replies = [await reader.readline() for _ in range(5)]
            served = [r for r in replies if r == b"END\r\n"]
            shed = [r for r in replies if r.startswith(proto.BUSY_PREFIX)]
            assert len(served) == 2
            assert len(shed) == 3
            assert server.shed_commands == 3

        run(with_raw_server(body, max_inflight=2))

    def test_stream_stays_framed_after_a_shed(self):
        async def body(server, reader, writer):
            writer.write(b"get a\r\nget b\r\nget c\r\n")
            await writer.drain()
            for _ in range(3):
                await reader.readline()
            # The connection survived the sheds: later commands on the
            # same socket get normal replies in their own slots.
            writer.write(b"set k 0 0 1\r\nv\r\n")
            await writer.drain()
            assert await reader.readline() == b"STORED\r\n"
            writer.write(b"get k\r\n")
            await writer.drain()
            assert await reader.readline() == b"VALUE k 0 1\r\n"
            assert await reader.readline() == b"v\r\n"
            assert await reader.readline() == b"END\r\n"

        run(with_raw_server(body, max_inflight=1))

    def test_stats_expose_the_armor_counters(self):
        async def body(server, reader, writer):
            writer.write(b"get k\r\nget k\r\n")
            await writer.drain()
            await reader.readline()
            await reader.readline()
            writer.write(b"stats\r\n")
            await writer.drain()
            lines = []
            while True:
                line = await reader.readline()
                lines.append(line)
                if line == b"END\r\n":
                    break
            text = b"".join(lines).decode()
            assert "inflight_commands" in text
            assert "shed_commands" in text

        run(with_raw_server(body, max_inflight=1))


class TestSlowReader:
    """The write high-water contract over a real socket: a client that
    does not read its replies is paused, not buffered for, and the global
    cap sheds around it (``tests/net/test_server_connection.py`` drives
    the same callbacks by hand)."""

    REQUESTS = 24
    VALUE = b"x" * (256 * 1024)  # 6 MiB of replies: more than loopback's
    # kernel buffers absorb, so the server's own write buffer must fill

    def test_unread_replies_hold_inflight_until_the_client_reads(self):
        async def body(server, reader, writer):
            assert server._set("big", self.VALUE, 0.0, None, 0) == proto.STORED
            await until(lambda: server._open)
            (connection,) = server._open
            connection.transport.set_write_buffer_limits(high=64 * 1024)
            # Pin the receive buffer, or the kernel grows it to fit.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024
            )
            writer.write(b"get big\r\n" * self.REQUESTS)
            await until(lambda: server.inflight == self.REQUESTS)
            assert connection.write_paused
            async with MemcachedClient("127.0.0.1", server.port) as other:
                with pytest.raises(ServerBusyError):
                    await other.get("big")
                reply = len(proto.value_response("big", 0, self.VALUE)) + 5
                await reader.readexactly(reply * self.REQUESTS)
                await until(lambda: server.inflight == 0)
                assert not connection.write_paused
                assert await other.get("big") == self.VALUE

        run(with_raw_server(body, max_inflight=self.REQUESTS))


class TestInflightAlwaysReturns:
    def test_a_dispatch_that_raises_drops_the_connection_not_the_count(self):
        async def body(server, reader, writer):
            def broken_store(keys, now):
                raise RuntimeError("a bug in the store")

            writer.write(b"set k 0 0 1\r\nv\r\n")
            assert await reader.readline() == b"STORED\r\n"
            server.store.get_many = broken_store
            writer.write(b"get k\r\n")
            assert await asyncio.wait_for(reader.read(), 5) == b""
            assert server.inflight == 0
            assert server._stats_dict()["curr_connections"] == 0

        run(with_raw_server(body, max_inflight=4))


class _BusyServer:
    """A fake memcached that sheds every command line it reads."""

    def __init__(self):
        self._server = None

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                writer.write(proto.busy_response("synthetic overload"))
                await writer.drain()
        finally:
            writer.close()

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()


class TestClientClassification:
    def test_error_line_classifies_busy(self):
        busy = ErrorLine(proto.busy_response("x").rstrip(b"\r\n"))
        plain = ErrorLine(b"SERVER_ERROR out of memory")
        assert busy.is_busy
        assert not plain.is_busy
        with pytest.raises(ServerBusyError):
            busy.raise_()

    def test_client_raises_server_busy_and_policy_refuses_retry(self):
        async def body():
            async with _BusyServer() as port:
                async with MemcachedClient("127.0.0.1", port) as client:
                    with pytest.raises(ServerBusyError) as info:
                        await client.get("k")
            # The wire shed maps to the never-retry class: storms
            # cannot amplify through the retry loop.
            assert not RetryPolicy().is_transient(info.value)

        run(body())
