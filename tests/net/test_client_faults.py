"""Hardened MemcachedClient: poisoning, reconnects, timeouts, desync.

The memcached text protocol has no framing, so after any mid-reply
failure the stream position is unknown: the client must poison (abort)
the connection rather than risk pairing the next request with a stale
reply.  These tests script misbehaving servers byte-by-byte and pin the
poison/reconnect contract.
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ProtocolError, ServerBusyError, TransportError
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer


def run(coro):
    return asyncio.run(coro)


class ScriptedServer:
    """Replies from a fixed script, one entry per request line group.

    An entry is raw reply bytes, or ``(bytes, "close")`` to send a
    partial reply and abort mid-stream, or ``None`` to abort without
    replying at all."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.server = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.strip().startswith(b"set"):
                    await reader.readline()  # consume the data block
                if not self.replies:
                    break
                reply = self.replies.pop(0)
                if reply is None:
                    writer.transport.abort()
                    return
                if isinstance(reply, tuple):
                    writer.write(reply[0])
                    await writer.drain()
                    writer.transport.abort()
                    return
                writer.write(reply)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


class TestPoisoning:
    def test_mid_reply_eof_poisons_and_raises_transport_error(self):
        async def body():
            # VALUE header promises 10 bytes, connection dies after 3.
            server = ScriptedServer([(b"VALUE k 0 10\r\nabc", "close")])
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            with pytest.raises(TransportError):
                await client.get("k")
            assert client.broken
            assert not client.connected
            await server.stop()

        run(body())

    def test_garbage_reply_desyncs_and_poisons(self):
        async def body():
            server = ScriptedServer([b"WAT 42\r\n"])
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            with pytest.raises(ProtocolError):
                await client.get("k")
            assert client.broken
            await server.stop()

        run(body())

    def test_server_error_reply_does_not_poison(self):
        async def body():
            # A complete SERVER_ERROR line leaves the stream in sync: the
            # client must keep the connection and serve the next call.
            server = ScriptedServer([b"SERVER_ERROR oom\r\n", b"END\r\n"])
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            with pytest.raises(ProtocolError):
                await client.get("k")
            assert not client.broken
            assert client.connected
            assert await client.get("k") is None  # same connection
            assert client.reconnects == 0
            await server.stop()

        run(body())

    def test_unexpected_set_reply_poisons(self):
        async def body():
            server = ScriptedServer([b"BANANA\r\n"])
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            with pytest.raises(ProtocolError):
                await client.set("k", b"v")
            assert client.broken
            await server.stop()

        run(body())


class TestStoreBursts:
    """A ``set_multi`` burst is framed as one reply: every line is read
    before it answers, an error line raises once the burst has settled
    (the stream is still framed), any other line desyncs."""

    ITEMS = [("a", b"1"), ("b", b"2"), ("c", b"3")]

    async def burst(self, replies, **client_kwargs):
        server = ScriptedServer(replies)
        port = await server.start()
        client = await MemcachedClient(
            "127.0.0.1", port, **client_kwargs
        ).connect()
        return server, client

    def test_stored_and_not_stored_lines_count(self):
        async def body():
            server, client = await self.burst(
                [b"STORED\r\n", b"NOT_STORED\r\n", b"STORED\r\n"]
            )
            assert await client.set_multi(self.ITEMS, verb="add") == 2
            assert client.connected and client.reconnects == 0
            await server.stop()

        run(body())

    @pytest.mark.parametrize("line, error", [
        (b"SERVER_ERROR out of memory", ProtocolError),
        (b"SERVER_ERROR busy inflight limit 4", ServerBusyError),
    ])
    def test_an_error_line_raises_after_the_burst_and_keeps_the_stream(
        self, line, error
    ):
        async def body():
            server, client = await self.burst([
                b"STORED\r\n", line + b"\r\n", b"CLIENT_ERROR late\r\n",
                b"END\r\n",
            ])
            with pytest.raises(error, match=line.decode()):
                await client.set_multi(self.ITEMS)
            assert not client.broken
            assert await client.get("a") is None  # the same connection
            assert client.reconnects == 0
            await server.stop()

        run(body())

    def test_a_foreign_line_desyncs_and_poisons(self):
        async def body():
            server, client = await self.burst(
                [b"STORED\r\n", b"DELETED\r\n", b"STORED\r\n"]
            )
            with pytest.raises(ProtocolError, match="DELETED"):
                await client.set_multi(self.ITEMS)
            assert client.broken
            await server.stop()

        run(body())

    def test_a_burst_answered_in_part_times_out(self):
        async def answer_two_of_three(reader, writer):
            await reader.readline()
            writer.write(b"STORED\r\nSTORED\r\n")
            await asyncio.sleep(3600)  # and never the third

        async def body():
            server = await asyncio.start_server(
                answer_two_of_three, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.05
            ).connect()
            with pytest.raises(TransportError) as excinfo:
                await client.set_multi(self.ITEMS)
            # the burst's one deadline, the congestion signal
            assert isinstance(excinfo.value.__cause__, asyncio.TimeoutError)
            assert client.broken
            server.close()
            await server.wait_closed()

        run(body())


class TestReconnect:
    def test_auto_reconnect_after_poison(self):
        async def body():
            bloom = optimal_config(500)
            real = MemcachedServer(bloom_config=bloom)
            await real.start()
            client = await MemcachedClient("127.0.0.1", real.port).connect()
            assert await client.set("k", b"v")
            client._poison()  # simulate a mid-stream fault
            assert client.broken
            # next call dials a fresh connection transparently
            assert await client.get("k") == b"v"
            assert client.reconnects == 1
            assert not client.broken
            await client.close()
            await real.stop()

        run(body())

    def test_never_dialed_client_raises_protocol_error(self):
        async def body():
            client = MemcachedClient("127.0.0.1", 1)
            with pytest.raises(ProtocolError):
                await client.get("k")

        run(body())

    def test_failed_first_dial_then_recovery(self):
        async def body():
            bloom = optimal_config(500)
            client = MemcachedClient("127.0.0.1", 1)
            with pytest.raises(OSError):
                await client.connect()
            # a later call keeps trying to dial (and keeps failing)
            with pytest.raises(OSError):
                await client.get("k")
            # point it at a live server: same object recovers
            real = MemcachedServer(bloom_config=bloom)
            await real.start()
            client.port = real.port
            assert await client.get("k") is None
            await client.close()
            await real.stop()

        run(body())


class TestTimeouts:
    def test_per_op_timeout_poisons_and_raises(self):
        async def body():
            # A server that accepts and then never answers.
            server = await asyncio.start_server(
                lambda r, w: asyncio.sleep(3600), "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            client = await MemcachedClient(
                "127.0.0.1", port, timeout=0.05
            ).connect()
            with pytest.raises(TransportError):
                await client.get("k")
            assert client.broken
            server.close()
            await server.wait_closed()

        run(body())

    def test_connect_timeout_raises_transport_error(self, monkeypatch):
        async def body():
            async def never_connects(*args, **kwargs):
                await asyncio.sleep(3600)

            loop = asyncio.get_running_loop()
            monkeypatch.setattr(
                type(loop),
                "create_connection",
                lambda self, *args, **kwargs: never_connects(),
            )
            client = MemcachedClient("127.0.0.1", 9, timeout=0.05)
            with pytest.raises(TransportError, match="timed out") as excinfo:
                await client.connect()
            # a timeout, told apart from a refused or reset connection
            assert isinstance(excinfo.value.__cause__, asyncio.TimeoutError)
            # The timeout is a timer on the dial, not on the caller: a
            # caller cancelled mid-dial sees its own cancellation.
            client = MemcachedClient("127.0.0.1", 9, timeout=30.0)
            dialling = asyncio.ensure_future(client.connect())
            await asyncio.sleep(0)
            dialling.cancel()
            with pytest.raises(asyncio.CancelledError):
                await dialling

        run(body())
