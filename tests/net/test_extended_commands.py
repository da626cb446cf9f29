"""Tests for the memcached commands past ``get`` / ``set``: live TCP,
and as bytes on the server's connection seam the verbs the server does
not speak."""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ProtocolError
from repro.net import protocol as proto
from repro.net.client import MemcachedClient
from repro.net.parser import StatsReply
from repro.net.server import MemcachedServer
from tests.net.test_server_connection import connect
from tests.net.wire import command

CFG = optimal_config(2000)


def run(coro):
    return asyncio.run(coro)


async def with_server(test_body, **server_kwargs):
    server_kwargs.setdefault("bloom_config", CFG)
    server = MemcachedServer(**server_kwargs)
    await server.start()
    try:
        async with MemcachedClient("127.0.0.1", server.port) as client:
            await test_body(server, client)
    finally:
        await server.stop()


def over_bytes(test_body):
    """Run ``test_body(send)`` on a listening server's connection seam:
    ``send(chunk)`` returns the one write that answers *chunk*."""
    async def main():
        server = MemcachedServer(bloom_config=CFG)
        await server.start()
        try:
            connection, transport = connect(server)

            def send(chunk):
                connection.data_received(chunk)
                return transport.writes.pop()

            test_body(send)
        finally:
            await server.stop()

    run(main())


class TestArithmetic:
    def test_incr(self):
        async def body(server, client):
            await client.set("n", b"10")
            assert await client.incr("n", 5) == 15
            assert await client.get("n") == b"15"

        run(with_server(body))

    def test_arith_on_missing_returns_none(self):
        async def body(server, client):
            assert await client.incr("ghost") is None

        run(with_server(body))

    def test_arith_on_non_numeric_raises(self):
        async def body(server, client):
            await client.set("s", b"not-a-number")
            with pytest.raises(ProtocolError):
                await client.incr("s")

        run(with_server(body))

    def test_incr_wraps_at_64_bits(self):
        async def body(server, client):
            await client.set("n", str(2 ** 64 - 1).encode())
            assert await client.incr("n", 1) == 0

        run(with_server(body))
class TestRetimeBySet:
    """A ``set`` over a resident key re-times it: the expiry index must
    act on the new deadline, never the old one."""

    def test_retimed_shorter_is_reclaimed_before_any_live_lru_victim(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            for key in ("a", "b", "c", "d"):
                await client.set(key, b"x" * 100)
            await client.set("a", b"x" * 100, exptime=5)  # most recent
            fake["t"] = 6.0
            await client.set("e", b"x" * 100)   # full: needs one slot
            assert "a" not in server.store
            assert all(key in server.store for key in "bcde")
            assert server.store.stats.expirations == 1
            assert server.store.stats.evictions == 0
            assert server.digest.count == len(server.store) == 4

        run(with_server(body, capacity_bytes=400))

    def test_retimed_longer_survives_the_old_deadline_at_capacity(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("longer", b"x" * 100, exptime=5)
            await client.set("never", b"x" * 100, exptime=5)
            await client.set("left", b"x" * 100, exptime=5)
            await client.set("longer", b"x" * 100, exptime=100)
            await client.set("never", b"x" * 100)
            fake["t"] = 6.0
            # Everything past its *current* deadline goes; nothing else.
            assert server.store.purge_expired(fake["t"]) == 1
            assert set(server.store._items) == {"longer", "never"}
            await client.set("fill", b"x" * 100)
            await client.set("more", b"x" * 100)
            assert server.store.stats.evictions == 0
            fake["t"] = 200.0
            assert server.store.purge_expired(fake["t"]) == 1
            assert set(server.store._items) == {"never", "fill", "more"}
            assert await client.get("never") == b"x" * 100

        run(with_server(body, capacity_bytes=400))


class TestNegativeExptime:
    """memcached expires an item stored with ``exptime < 0`` at once: the
    command answers as usual and the next ``get`` misses."""

    @pytest.mark.parametrize("command", [b"set", b"add"])
    def test_a_store_with_negative_exptime_answers_stored_then_misses(
        self, command
    ):
        def body(send):
            if command == b"set":
                assert send(b"set k 0 0 2\r\nv1\r\n") == b"STORED\r\n"
            line = b"%s k 3 -1 2" % command
            assert send(line + b"\r\nv2\r\n") == b"STORED\r\n"
            assert send(b"get k\r\n") == b"END\r\n"
            # gone, not hidden: an add finds the key free again
            assert send(b"add k 0 0 2\r\nv3\r\n") == b"STORED\r\n"
            assert send(b"get k\r\n") == b"VALUE k 0 2\r\nv3\r\nEND\r\n"

        over_bytes(body)

    def test_the_client_sees_the_same(self):
        async def body(server, client):
            assert await client.set("k", b"v", exptime=-1)
            assert await client.get("k") is None
            assert server.digest.count == len(server.store) == 0

        run(with_server(body))


class TestVerbsTheTierNeverSends:
    """The node speaks the verbs the web tier sends.  Any other line is an
    unknown command: one error line per line (a data block's line too),
    and the stream stays framed for the next command."""

    HIT = b"VALUE k 0 1\r\nv\r\nEND\r\n"

    @pytest.mark.parametrize("lines", [
        b"gets k\r\n",
        b"cas k 0 0 1 1\r\nx\r\n",
        b"replace k 0 0 1\r\nx\r\n",
        b"append k 0 0 1\r\nx\r\n",
        b"prepend k 0 0 1\r\nx\r\n",
        b"decr k 1\r\n",
        b"touch k 10\r\n",
        b"version\r\n",
        b"stats slabs\r\n",
    ])
    def test_each_line_is_one_error_and_the_stream_stays_framed(self, lines):
        def body(send):
            assert send(b"set k 0 0 1\r\nv\r\n") == b"STORED\r\n"
            reply = send(lines + b"get k\r\n")
            assert reply.endswith(self.HIT)
            errors = reply[:-len(self.HIT)].split(b"\r\n")[:-1]
            assert len(errors) == lines.count(b"\r\n")
            assert all(line.startswith(b"CLIENT_ERROR ") for line in errors)
            assert lines.split()[0] in errors[0]
            assert send(b"get k\r\n") == self.HIT

        over_bytes(body)


class TestGetMulti:
    def test_batched_hits_and_misses(self):
        async def body(server, client):
            await client.set("a", b"1")
            await client.set("b", b"2")
            out = await client.get_multi(["a", "missing", "b"])
            assert out == {"a": b"1", "b": b"2"}

        run(with_server(body))

    def test_empty_batch(self):
        async def body(server, client):
            assert await client.get_multi([]) == {}

        run(with_server(body))

    def test_large_batch(self):
        async def body(server, client):
            for i in range(64):
                await client.set(f"k{i}", str(i).encode())
            out = await client.get_multi([f"k{i}" for i in range(64)])
            assert len(out) == 64
            assert out["k7"] == b"7"

        run(with_server(body))


class TestParsingOfNewCommands:
    def test_incr_parse(self):
        req = proto.parse_command_line(b"incr k 7\r\n")
        assert req.command == "incr" and req.delta == 7

    def test_incr_negative_delta_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"incr k -1\r\n")
