"""Live TCP tests: the asyncio memcached server + client pair."""

import asyncio

import pytest

from repro.bloom.config import BloomConfig, optimal_config
from repro.errors import ProtocolError, TransportError
from repro.net import protocol as proto
from repro.net.client import MemcachedClient
from repro.net.server import READ_SIZE, MemcachedServer
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


class TestBasicCommands:
    def test_set_get_delete(self):
        async def body(server, client):
            assert await client.set("k", b"v") is True
            assert await client.get("k") == b"v"
            assert await client.delete("k") is True
            assert await client.get("k") is None
            assert await client.delete("k") is False

        run(with_server(body))

    def test_binary_values_roundtrip(self):
        async def body(server, client):
            payload = bytes(range(256)) * 16
            await client.set("bin", payload)
            assert await client.get("bin") == payload

        run(with_server(body))

    def test_value_with_crlf_inside(self):
        async def body(server, client):
            payload = b"line1\r\nline2\r\n"
            await client.set("tricky", payload)
            assert await client.get("tricky") == payload

        run(with_server(body))

    def test_add_and_replace_semantics(self):
        async def body(server, client):
            assert await command(client, b"add k 0 0 1\r\n1\r\n") == b"STORED"
            assert await command(
                client, b"add k 0 0 1\r\n2\r\n"
            ) == b"NOT_STORED"
            assert await client.get("k") == b"1"
            # replace is no verb of this server: an error line, no store
            with pytest.raises(ProtocolError, match="unknown command"):
                await command(client, b"replace k 0 0 1\r\n")
            assert await client.get("k") == b"1"

        run(with_server(body))

    def test_expiry(self):
        async def body(server, client):
            fake_now = {"t": 0.0}
            server._clock = lambda: fake_now["t"]
            await client.set("k", b"v", exptime=10)
            assert await client.get("k") == b"v"
            fake_now["t"] = 11.0
            assert await client.get("k") is None

        run(with_server(body))

    def test_stats_and_version_and_flush(self):
        async def body(server, client):
            await client.set("a", b"1")
            await client.get("a")
            await client.get("missing")
            stats = await client.stats()
            assert stats["cmd_set"] == "1"
            assert stats["get_hits"] == "1"
            assert stats["get_misses"] == "1"
            with pytest.raises(ProtocolError, match="unknown command"):
                await command(client, b"version\r\n")
            await client.flush_all()
            assert await client.get("a") is None

        run(with_server(body))

    def test_lru_eviction_over_tcp(self):
        async def body(server, client):
            for i in range(10):
                await client.set(f"k{i}", b"x" * 100)
            stats = await client.stats()
            assert int(stats["evictions"]) > 0
            assert int(stats["bytes"]) <= 500

        run(with_server(body, capacity_bytes=500))

    def test_a_burst_several_times_the_read_buffer_lands_whole(self):
        # Reads reuse one READ_SIZE buffer; a data block cut across reads
        # (and a value bigger than the buffer) must still frame exactly.
        async def body(server, client):
            items = [(f"k{i}", b"%05d" % i * 40) for i in range(2000)]
            items.append(("big", bytes(range(256)) * (READ_SIZE // 100)))
            assert sum(len(value) for _, value in items) > 4 * READ_SIZE
            assert await client.set_multi(items) == len(items)
            assert await client.get_multi([key for key, _ in items]) == (
                dict(items)
            )

        run(with_server(body))

    def test_malformed_command_gets_client_error(self):
        async def body(server, client):
            with pytest.raises(ProtocolError, match="CLIENT_ERROR"):
                await command(client, b"bogus nonsense\r\n")
            # A complete error line keeps the stream framed.
            assert not client.broken

        run(with_server(body))


    def test_batch_calls_validate_every_key_before_writing_anything(self):
        async def body(server, client):
            long = "é" * 200  # 200 characters, 400 bytes on the wire
            for bad in (long, "", "has space", "x" * 251):
                keys = ["a", "b", bad, "c"]
                with pytest.raises(ProtocolError, match="key"):
                    await client.get_multi(keys)
                with pytest.raises(ProtocolError, match="key"):
                    await client.get_many(keys)
                with pytest.raises(ProtocolError, match="key"):
                    await client.set_multi({key: b"v" for key in keys})
            with pytest.raises(ProtocolError, match="bad key length: 400"):
                await client.get(long)
            stats = server.store.stats
            assert stats.gets == 0 and stats.sets == 0
            assert server.connections == 1 and not client.broken
            # the longest legal keys, in every batch shape
            keys = ["é" * 125, "x" * 250, "日本語"]
            assert await client.set_multi([(key, b"v") for key in keys]) == 3
            assert await client.get_multi(keys) == dict.fromkeys(keys, b"v")
            assert await client.get_many(keys + ["nope"]) == [b"v"] * 3 + [None]
            assert await client.get_multi([]) == {}

        run(with_server(body))


class TestDigestOverTcp:
    def test_snapshot_and_fetch(self):
        async def body(server, client):
            for i in range(300):
                await client.set(f"k{i}", b"v")
            await client.snapshot_digest()
            digest = await client.fetch_digest(
                server.bloom_config.num_counters, server.bloom_config.num_hashes
            )
            assert all(digest.contains(f"k{i}") for i in range(300))

        run(with_server(body))

    def test_snapshot_is_frozen_until_next_snapshot(self):
        async def body(server, client):
            await client.set("early", b"1")
            await client.snapshot_digest()
            await client.set("late", b"1")
            digest = await client.fetch_digest(CFG.num_counters, CFG.num_hashes)
            assert digest.contains("early")
            assert not digest.contains("late")
            await client.snapshot_digest()
            digest = await client.fetch_digest(CFG.num_counters, CFG.num_hashes)
            assert digest.contains("late")

        run(with_server(body))

    def test_fetch_without_snapshot_raises(self):
        async def body(server, client):
            with pytest.raises(ProtocolError):
                await client.fetch_digest(CFG.num_counters)

        run(with_server(body))

    def test_digest_tracks_deletes_over_tcp(self):
        async def body(server, client):
            await client.set("gone", b"1")
            await client.delete("gone")
            await client.snapshot_digest()
            digest = await client.fetch_digest(CFG.num_counters, CFG.num_hashes)
            assert not digest.contains("gone")

        run(with_server(body))

    def test_reserved_keys_cannot_be_stored(self):
        async def body(server, client):
            with pytest.raises(ProtocolError, match="CLIENT_ERROR"):
                await command(client, b"set SET_BLOOM_FILTER 0 0 1\r\nx\r\n")

        run(with_server(body))


class TestDigestOverflow:
    """A saturated counter is the paper's tolerated false negative, not a
    bug: once one has overflowed, an unlink that finds a zero counter must
    not raise out of ``_dispatch`` and leave the command half-applied."""

    #: 8 one-bit counters: 20 keys saturate all of them
    TINY = BloomConfig(
        num_counters=8, counter_bits=1, num_hashes=4, kappa=1,
        fp_bound=1.0, fn_bound=1.0,
    )

    @staticmethod
    def node(capacity_bytes=None):
        server = MemcachedServer(capacity_bytes, TestDigestOverflow.TINY)
        for i in range(20):
            assert server._dispatch(proto.Request(
                "set", [f"key:{i}"], value=b"v", num_bytes=1,
            )) == proto.STORED
        assert server.digest.overflow_events > 0
        return server

    def test_an_evicting_set_stores(self):
        server = self.node(capacity_bytes=10)
        for i in range(20, 40):
            assert server._dispatch(proto.Request(
                "set", [f"key:{i}"], value=b"v", num_bytes=1,
            )) == proto.STORED
        assert len(server.store) == 10
        assert server.store.stats.evictions == 30
        assert server.digest.count == 10

    def test_a_delete_deletes(self):
        server = self.node()
        for i in range(20):
            assert server._dispatch(
                proto.Request("delete", [f"key:{i}"])
            ) == proto.DELETED
        assert len(server.store) == server.digest.count == 0

    def test_flush_all_empties_store_and_digest(self):
        server = self.node()
        assert server._dispatch(proto.Request("flush_all")) == b"OK\r\n"
        assert len(server.store) == server.digest.count == 0
        assert not any(server.digest._counters)
        # the cleared digest is exact again: strict checks resume
        assert server.digest.overflow_events == 0


class TestConcurrency:
    def test_multiple_clients(self):
        async def body():
            server = MemcachedServer(bloom_config=CFG)
            await server.start()
            try:
                async def worker(worker_id):
                    async with MemcachedClient("127.0.0.1", server.port) as c:
                        for i in range(50):
                            await c.set(f"w{worker_id}:k{i}", b"v")
                        hits = 0
                        for i in range(50):
                            if await c.get(f"w{worker_id}:k{i}") == b"v":
                                hits += 1
                        return hits

                results = await asyncio.gather(*(worker(w) for w in range(5)))
                assert results == [50] * 5
                assert server.connections == 5
            finally:
                await server.stop()

        run(body())

    def test_client_methods_require_connection(self):
        # A call with no live stream dials one; when nothing answers, the
        # refused dial reaches the caller and no stream is left behind.
        client = MemcachedClient("127.0.0.1", 1)
        with pytest.raises(OSError):
            run(client.get("x"))
        assert client._protocol is None


class TestStop:
    """A stopped node is powered off: it answers nobody."""

    def test_stop_drops_connections_made_before_it(self):
        async def body():
            server = MemcachedServer(bloom_config=CFG)
            port = await server.start()
            client = await MemcachedClient("127.0.0.1", port).connect()
            try:
                await client.set("k", b"v")
                await server.stop()
                assert server.inflight == 0
                assert server._stats_dict()["curr_connections"] == 0
                # The dropped connection, then the refused redial.
                for _ in range(2):
                    with pytest.raises((TransportError, ConnectionError)):
                        await asyncio.wait_for(client.get("k"), 5)
            finally:
                await client.close()

        run(body())


class TestMalformedDataBlock:
    def test_bad_block_terminator_replies_and_closes(self):
        async def body():
            from repro.bloom.config import optimal_config

            server = MemcachedServer(bloom_config=optimal_config(500))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # 3-byte block whose terminator is not CRLF.
                writer.write(b"set k 0 0 3\r\nabcXY")
                await writer.drain()
                reply = await reader.readline()
                assert reply.startswith(b"CLIENT_ERROR")
                # The server closes the desynchronized connection.
                assert await reader.read() == b""
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            finally:
                await server.stop()

        run(body())

    def test_short_block_then_eof_is_handled(self):
        async def body():
            from repro.bloom.config import optimal_config

            server = MemcachedServer(bloom_config=optimal_config(500))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"set k 0 0 100\r\nshort")
                await writer.drain()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                # Server must survive the half-written request...
                async with MemcachedClient("127.0.0.1", server.port) as c:
                    assert await c.set("ok", b"1")
                    assert await c.get("ok") == b"1"
            finally:
                await server.stop()

        run(body())
