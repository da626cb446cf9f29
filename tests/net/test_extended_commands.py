"""Tests for the extended memcached commands: live TCP, and ``gets`` /
``cas`` — which the server speaks and the client does not — as bytes on
the server's connection seam."""

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


def gets(send, key):
    """``(value, cas id)`` of a ``gets`` hit."""
    header, value, end = send(b"gets %s\r\n" % key).split(b"\r\n", 2)
    assert header.startswith(b"VALUE %s 0 " % key) and end == b"END\r\n"
    return value, int(header.split(b" ")[4])


class TestCas:
    def test_gets_returns_cas_id(self):
        def body(send):
            assert send(b"set k 0 0 2\r\nv1\r\n") == b"STORED\r\n"
            value, first = gets(send, b"k")
            assert value == b"v1"
            send(b"set k 0 0 2\r\nv2\r\n")
            value, second = gets(send, b"k")
            assert value == b"v2" and second > first

        over_bytes(body)

    def test_cas_succeeds_when_unchanged(self):
        def body(send):
            send(b"set k 0 0 2\r\nv1\r\n")
            _, token = gets(send, b"k")
            assert send(b"cas k 0 0 2 %d\r\nv2\r\n" % token) == b"STORED\r\n"
            assert send(b"get k\r\n") == b"VALUE k 0 2\r\nv2\r\nEND\r\n"

        over_bytes(body)

    def test_cas_fails_after_concurrent_write(self):
        def body(send):
            send(b"set k 0 0 2\r\nv1\r\n")
            _, token = gets(send, b"k")
            send(b"set k 0 0 11\r\nintervening\r\n")
            assert send(b"cas k 0 0 2 %d\r\nv2\r\n" % token) == b"EXISTS\r\n"
            assert send(b"get k\r\n") == (
                b"VALUE k 0 11\r\nintervening\r\nEND\r\n"
            )

        over_bytes(body)

    def test_cas_on_missing_key(self):
        def body(send):
            assert send(b"cas ghost 0 0 1 1\r\nv\r\n") == b"NOT_FOUND\r\n"

        over_bytes(body)

    def test_gets_miss_returns_none(self):
        def body(send):
            assert send(b"gets missing\r\n") == b"END\r\n"

        over_bytes(body)


class TestConcat:
    def test_append(self):
        async def body(server, client):
            await client.set("k", b"hello")
            assert await command(
                client, b"append k 0 0 6\r\n world\r\n"
            ) == b"STORED"
            assert await client.get("k") == b"hello world"

        run(with_server(body))

    def test_prepend(self):
        async def body(server, client):
            await client.set("k", b"world")
            reply = await command(client, b"prepend k 0 0 6\r\nhello \r\n")
            assert reply == b"STORED"
            assert await client.get("k") == b"hello world"

        run(with_server(body))

    def test_concat_on_missing_key_not_stored(self):
        async def body(server, client):
            assert await command(
                client, b"append ghost 0 0 1\r\nx\r\n"
            ) == b"NOT_STORED"
            assert await command(
                client, b"prepend ghost 0 0 1\r\nx\r\n"
            ) == b"NOT_STORED"

        run(with_server(body))

    def test_concat_keeps_digest_consistent(self):
        async def body(server, client):
            await client.set("k", b"a")
            await command(client, b"append k 0 0 1\r\nb\r\n")
            assert server.digest.count == 1  # replace, not duplicate insert
            assert "k" in server.digest

        run(with_server(body))


class TestArithmetic:
    def test_incr(self):
        async def body(server, client):
            await client.set("n", b"10")
            assert await client.incr("n", 5) == 15
            assert await client.get("n") == b"15"

        run(with_server(body))

    def test_decr_clamps_at_zero(self):
        async def body(server, client):
            await client.set("n", b"3")
            assert await command(client, b"decr n 10\r\n") == b"0"

        run(with_server(body))

    def test_arith_on_missing_returns_none(self):
        async def body(server, client):
            assert await client.incr("ghost") is None
            assert await command(client, b"decr ghost 1\r\n") == b"NOT_FOUND"

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


class TestTouch:
    def test_touch_extends_expiry(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("k", b"v", exptime=10)
            fake["t"] = 8.0
            assert await command(client, b"touch k 100\r\n") == b"TOUCHED"
            fake["t"] = 50.0
            assert await client.get("k") == b"v"

        run(with_server(body))

    def test_touch_missing_key(self):
        async def body(server, client):
            assert await command(client, b"touch ghost 10\r\n") == b"NOT_FOUND"

        run(with_server(body))

    def test_touch_zero_clears_expiry(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("k", b"v", exptime=5)
            assert await command(client, b"touch k 0\r\n") == b"TOUCHED"
            fake["t"] = 1e9
            assert await client.get("k") == b"v"

        run(with_server(body))


    def test_touched_shorter_is_reclaimed_before_any_live_lru_victim(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            for key in ("a", "b", "c", "d"):
                await client.set(key, b"x" * 100)
            await client.get("a")          # "a" is now the *most* recent
            assert await command(client, b"touch a 5\r\n") == b"TOUCHED"
            fake["t"] = 6.0
            await client.set("e", b"x" * 100)   # full: needs one slot
            assert "a" not in server.store
            assert all(key in server.store for key in "bcde")
            assert server.store.stats.expirations == 1
            assert server.store.stats.evictions == 0
            assert server.digest.count == len(server.store) == 4

        run(with_server(body, capacity_bytes=400))

    def test_touched_longer_survives_the_old_deadline_at_capacity(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("longer", b"x" * 100, exptime=5)
            await client.set("never", b"x" * 100, exptime=5)
            await client.set("left", b"x" * 100, exptime=5)
            assert await command(client, b"touch longer 100\r\n") == b"TOUCHED"
            assert await command(client, b"touch never 0\r\n") == b"TOUCHED"
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


class TestCasBookkeeping:
    """A cas id lives on its item: it goes when the item does, so no
    side-table can outgrow the store."""

    def test_cas_ids_survive_churn(self):
        async def body(server, client):
            value = b"x" * 100
            for start in range(0, 10_000, 500):
                stored = await client.set_multi(
                    [(f"key:{i}", value) for i in range(start, start + 500)]
                )
                assert stored == 500
            assert len(server.store) == 1_000
            assert server.store.stats.evictions == 9_000
            ids = [server.store.peek(key).cas for key in server.store._items]
            assert ids == list(range(9_001, 10_001))  # stamped in set order
            assert await client.delete("key:9999")
            assert len(server.store) == 999
            # cas still sees a live id for what is resident.
            reply = await command(
                client,
                b"cas key:9998 0 0 3 %d\r\nnew\r\n"
                % server.store.peek("key:9998").cas,
            )
            assert reply == b"STORED"
            assert server.store.peek("key:9998").cas == 10_001
            await client.flush_all()
            assert len(server.store) == 0

        run(with_server(body, capacity_bytes=100 * 1_000))

    def test_expired_item_drops_its_cas_id(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("k", b"v", exptime=5)
            cas = server.store.peek("k").cas
            fake["t"] = 6.0
            assert await client.get("k") is None
            assert server.store.peek("k") is None
            reply = await command(client, b"cas k 0 0 1 %d\r\nw\r\n" % cas)
            assert reply == b"NOT_FOUND"

        run(with_server(body))


class TestNegativeExptime:
    """memcached expires an item stored or touched with ``exptime < 0`` at
    once: the command answers as usual and the next ``get`` misses."""

    @pytest.mark.parametrize("command", [b"set", b"add", b"replace", b"cas"])
    def test_a_store_with_negative_exptime_answers_stored_then_misses(
        self, command
    ):
        def body(send):
            if command != b"add":
                assert send(b"set k 0 0 2\r\nv1\r\n") == b"STORED\r\n"
            line = b"%s k 3 -1 2" % command
            if command == b"cas":
                line += b" %d" % gets(send, b"k")[1]
            assert send(line + b"\r\nv2\r\n") == b"STORED\r\n"
            assert send(b"get k\r\n") == b"END\r\n"
            # gone, not hidden: an add finds the key free again
            assert send(b"add k 0 0 2\r\nv3\r\n") == b"STORED\r\n"
            assert send(b"get k\r\n") == b"VALUE k 0 2\r\nv3\r\nEND\r\n"

        over_bytes(body)

    def test_touch_with_negative_exptime_answers_touched_then_misses(self):
        def body(send):
            assert send(b"set k 0 0 2\r\nv1\r\n") == b"STORED\r\n"
            assert send(b"touch k -1\r\n") == b"TOUCHED\r\n"
            assert send(b"get k\r\n") == b"END\r\n"
            assert send(b"touch k 0\r\n") == b"NOT_FOUND\r\n"

        over_bytes(body)

    def test_the_client_sees_the_same(self):
        async def body(server, client):
            assert await client.set("k", b"v", exptime=-1)
            assert await client.get("k") is None
            assert server.digest.count == len(server.store) == 0

        run(with_server(body))


class TestStatsSlabs:
    def test_stats_slabs_empty_on_plain_backend(self):
        async def body(server, client):
            stats = await command(client, b"stats slabs\r\n", StatsReply())
            assert stats == {}
            # a bare END, and the stream is still framed for the next command
            await client.set("k", b"v")
            assert await client.get("k") == b"v"

        run(with_server(body))


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
    def test_cas_parse(self):
        req = proto.parse_command_line(b"cas k 1 0 3 42\r\n")
        assert req.command == "cas" and req.cas == 42 and req.num_bytes == 3

    def test_cas_wrong_arity(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"cas k 1 0 3\r\n")

    def test_incr_parse(self):
        req = proto.parse_command_line(b"incr k 7\r\n")
        assert req.command == "incr" and req.delta == 7

    def test_incr_negative_delta_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"incr k -1\r\n")

    def test_touch_parse(self):
        req = proto.parse_command_line(b"touch k 60 noreply\r\n")
        assert req.command == "touch" and req.exptime == 60 and req.noreply

    def test_append_parse(self):
        req = proto.parse_command_line(b"append k 0 0 5\r\n")
        assert req.command == "append" and req.num_bytes == 5
