"""The server's per-connection protocol, driven by hand.

:class:`~repro.net.server.ServerConnection` is an ``asyncio.Protocol``, so
its whole contract — one write per received chunk, ``quit``, the fatal
``CLIENT_ERROR``, ``noreply``, and flow control by ``pause_writing`` /
``resume_writing`` — can be exercised against a recording transport: the
server listens (a stopped node refuses connections) but nothing dials it,
and nothing sleeps.
"""

import asyncio

from repro.bloom.config import BloomConfig, optimal_config
from repro.net import protocol as proto
from repro.net.client import _storage_burst
from repro.net.parser import MAX_LINE_LENGTH
from repro.net.server import MemcachedServer, ServerConnection

CFG = optimal_config(500)
HIT = b"VALUE k 0 1\r\nv\r\nEND\r\n"


class RecordingTransport:
    """What a connection asked of its transport, in order."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.writes = []
        self.calls = []

    def write(self, data):
        self.writes.append(data)

    def close(self):
        self.calls.append("close")

    def abort(self):
        self.calls.append("abort")
        self.protocol.connection_lost(None)

    def pause_reading(self):
        self.calls.append("pause_reading")

    def resume_reading(self):
        self.calls.append("resume_reading")

    def get_extra_info(self, name, default=None):
        return default


def connect(server):
    connection = ServerConnection(server)
    transport = RecordingTransport(connection)
    connection.connection_made(transport)
    return connection, transport


def drive(test_body, **server_kwargs):
    async def main():
        server = MemcachedServer(bloom_config=CFG, **server_kwargs)
        await server.start()
        try:
            connection, transport = connect(server)
            connection.data_received(b"set k 0 0 1\r\nv\r\n")
            assert transport.writes.pop() == b"STORED\r\n"
            test_body(server, connection, transport)
        finally:
            await server.stop()
        assert server.inflight == 0

    asyncio.run(main())


class TestOneWritePerChunk:
    def test_a_pipelined_chunk_is_answered_with_one_write(self):
        def body(server, connection, transport):
            connection.data_received(b"get k\r\n" * 7 + b"get missing\r\n")
            assert transport.writes == [HIT * 7 + b"END\r\n"]
            assert server.inflight == 0 and transport.calls == []

        drive(body)

    def test_a_split_command_waits_for_its_tail(self):
        def body(server, connection, transport):
            connection.data_received(b"get k\r\nge")
            connection.data_received(b"t k\r\n")
            assert transport.writes == [HIT, HIT]

        drive(body)

    def test_quit_mid_chunk_closes_and_ignores_the_rest(self):
        def body(server, connection, transport):
            connection.data_received(
                b"get k\r\nquit\r\nset later 0 0 1\r\nx\r\n"
            )
            assert transport.writes == [HIT]
            assert transport.calls == ["close"]
            assert server.store.peek("later") is None
            assert server.inflight == 0

        drive(body)

    def test_fatal_bad_command_writes_client_error_then_closes(self):
        def body(server, connection, transport):
            # A 3-byte block whose terminator is not CRLF desynchronizes
            # the stream: the ``get`` behind it is never served.
            connection.data_received(b"get k\r\nset b 0 0 3\r\nabcXYget k\r\n")
            (written,) = transport.writes
            assert written.startswith(HIT + b"CLIENT_ERROR ")
            assert written.count(b"\r\n") == 4
            assert transport.calls == ["close"]

        drive(body)

    def test_a_line_that_never_ends_is_answered_and_closed_not_buffered(self):
        def body(server, connection, transport):
            for _ in range(64):  # 4 MiB without a newline
                connection.data_received(b"x" * 65536)
            assert transport.writes == [b"CLIENT_ERROR line too long\r\n"]
            assert transport.calls == ["close"]
            assert len(connection.parser._buf) <= MAX_LINE_LENGTH + 65536
            assert server.inflight == 0

        drive(body)

    def test_one_multiget_is_one_reply_with_reserved_keys_in_place(self):
        def body(server, connection, transport):
            connection.data_received(b"set f 9 0 2\r\nhi\r\n")
            transport.writes.clear()
            connection.data_received(
                b"get k BLOOM_FILTER missing SET_BLOOM_FILTER f BLOOM_FILTER\r\n"
            )
            snapshot = server._snapshot
            assert transport.writes == [
                b"VALUE k 0 1\r\nv\r\n"        # no digest frozen yet: skipped
                b"VALUE SET_BLOOM_FILTER 0 1\r\n1\r\n"
                b"VALUE f 9 2\r\nhi\r\n"
                + proto.value_response("BLOOM_FILTER", 0, snapshot) + b"END\r\n"
            ]
            transport.writes.clear()
            connection.data_received(b"GET f missing k\r\n")
            assert transport.writes == [
                b"VALUE f 9 2\r\nhi\r\nVALUE k 0 1\r\nv\r\nEND\r\n"
            ]
            stats = server.store.stats
            assert (stats.gets, stats.hits, stats.misses) == (6, 4, 2)

        drive(body)

    def test_a_key_is_limited_in_bytes_not_characters(self):
        def body(server, connection, transport):
            # 200 characters, 400 bytes on the wire
            connection.data_received(
                "get k {0}\r\nGET {0}\r\nget k\r\n".format("é" * 200).encode()
            )
            error = b"CLIENT_ERROR bad key length: 400\r\n"
            assert transport.writes == [error * 2 + HIT]
            assert server.store.stats.gets == 1

        drive(body)

    def test_noreply_and_shed_noreply_write_nothing(self):
        def body(server, connection, transport):
            connection.data_received(b"set a 0 0 1 noreply\r\n1\r\n")
            assert server.store.peek("a") is not None
            assert server.inflight == 0  # no reply to drain: no slot
            assert transport.writes == []
            connection.pause_writing()  # hold the next reply in flight
            connection.data_received(b"get a\r\n")
            assert server.inflight == 1
            transport.writes.clear()
            connection.data_received(b"set c 0 0 1 noreply\r\n3\r\n")
            assert server.shed_commands == 1
            assert server.store.peek("c") is None
            assert transport.writes == []

        drive(body, max_inflight=1)

    def test_a_warm_probe_behind_a_full_cap_of_fills_is_answered(self):
        # A miss page's fills ride the next page's probe in one write: a
        # fill holds no inflight slot, so it cannot shed the probe.
        def body(server, connection, transport):
            fills = _storage_burst(
                b"add", [(f"fill{i}", b"x") for i in range(16)], b" noreply"
            )
            connection.data_received(fills + b"get k\r\n")
            assert transport.writes == [HIT]
            assert server.shed_commands == 0
            assert all(server.store.peek(f"fill{i}") for i in range(16))

        drive(body, max_inflight=16)


class TestSlowReader:
    """Flow control without ``drain()``: the transport's own callbacks."""

    def test_paused_writes_hold_inflight_and_pause_reads_once(self):
        def body(server, connection, transport):
            connection.pause_writing()
            connection.data_received(b"get k\r\nget k\r\n")
            assert server.inflight == 2  # answered, not yet drained
            connection.data_received(b"get k\r\nget k\r\n")
            assert server.inflight == 3
            busy = proto.busy_response("inflight limit 3")
            assert transport.writes == [HIT * 2, HIT + busy]
            # The cap is global: it sheds around the slow reader.
            other, other_transport = connect(server)
            other.data_received(b"get k\r\n")
            assert other_transport.writes == [busy]
            assert server.shed_commands == 2
            assert transport.calls == ["pause_reading"]

            connection.resume_writing()
            assert server.inflight == 0
            assert transport.calls == ["pause_reading", "resume_reading"]
            other.data_received(b"get k\r\n")
            assert other_transport.writes == [busy, HIT]

        drive(body, max_inflight=3)

    def test_connection_lost_while_paused_releases_inflight(self):
        def body(server, connection, transport):
            connection.pause_writing()
            connection.data_received(b"get k\r\n" * 4)
            assert server.inflight == 4
            connection.connection_lost(ConnectionResetError())
            assert server.inflight == 0
            assert server._stats_dict()["curr_connections"] == 0

        drive(body)

    def test_stop_drops_a_paused_connection(self):
        def body(server, connection, transport):
            connection.pause_writing()
            connection.data_received(b"get k\r\n" * 4)
            assert server.inflight == 4
            # drive() stops the server and checks inflight came back to 0

        drive(body)


class TestConnectionCounts:
    def test_a_connection_accepted_while_stopping_is_aborted(self):
        # The loop accepts a socket one iteration and hands it to its
        # protocol the next; stop() can run in between.
        async def main():
            server = MemcachedServer(bloom_config=CFG)
            await server.start()
            await server.stop()
            connection, transport = connect(server)
            assert transport.calls == ["abort"]
            assert server.connections == 0 and not server._open

        asyncio.run(main())

    def test_stats_tell_open_connections_from_accepted_ones(self):
        def body(server, connection, transport):
            second, _ = connect(server)
            third, _ = connect(server)
            second.connection_lost(None)
            third.connection_lost(None)
            connection.data_received(b"stats\r\n")
            stats = dict(
                line.split(b" ")[1:]
                for line in transport.writes[0].split(b"\r\n")
                if line.startswith(b"STAT ")
            )
            assert stats[b"curr_connections"] == b"1"
            assert stats[b"total_connections"] == b"3"
            assert stats[b"inflight_commands"] == b"1"  # the stats itself
            assert server.connections == 3

        drive(body)


class TestStoreOverCapacity:
    def test_set_and_arith_past_capacity_answer_the_set_error_line(self):
        # Every path to store.set maps CapacityError to the line an
        # oversized ``set`` gets; raising instead dropped the connection.
        def body(server, connection, transport):
            for command in (
                b"set big 0 0 9\r\n123456789\r\n",
                b"add big 0 0 9\r\n123456789\r\n",
            ):
                connection.data_received(command)
                assert transport.writes.pop() == (
                    b"SERVER_ERROR item of 9 bytes exceeds capacity 8\r\n"
                )
            connection.data_received(b"set n 0 0 8\r\n99999999\r\n")
            assert transport.writes.pop() == b"STORED\r\n"
            connection.data_received(b"incr n 1\r\n")
            assert transport.writes.pop() == (
                b"SERVER_ERROR item of 9 bytes exceeds capacity 8\r\n"
            )
            # nothing was half-applied and the connection is still usable
            connection.data_received(b"get n\r\n")
            assert transport.writes.pop() == (
                b"VALUE n 0 8\r\n99999999\r\nEND\r\n"
            )
            assert transport.calls == [] and server.inflight == 0

        drive(body, capacity_bytes=8)


class TestGoldenGetReplies:
    """``_do_get``'s wire bytes, pinned: each reply below was recorded from
    the per-key server loop that ``KeyValueStore.get_many`` replaced."""

    #: an 8-byte digest, so the ``BLOOM_FILTER`` value fits on a line
    TINY = BloomConfig(num_counters=64, counter_bits=4, num_hashes=2,
                       kappa=8, fp_bound=0.0, fn_bound=0.0)
    DIGEST = b"VALUE BLOOM_FILTER 0 8\r\n\x00\x04\x00\x00\x04 \x04\xa0\r\n"
    A, B = b"VALUE a 5 3\r\nabc\r\n", b"VALUE b 0 2\r\nhi\r\n"
    #: (server clock, request chunk, the one write that answers it); "exp"
    #: expires at 5, "future" is created at 10 and read at 6 first
    SCRIPT = [
        (0.0, b"set a 5 0 3\r\nabc\r\n", b"STORED\r\n"),
        (0.0, b"set b 0 0 2\r\nhi\r\n", b"STORED\r\n"),
        (0.0, b"set exp 0 5 1\r\nx\r\n", b"STORED\r\n"),
        (10.0, b"set future 7 0 1\r\nf\r\n", b"STORED\r\n"),
        (6.0, b"get a b missing a\r\n", A + B + A + b"END\r\n"),
        (6.0, b"get exp future a\r\n", A + b"END\r\n"),
        (6.0, b"get exp\r\n", b"END\r\n"),
        (6.0, b"get BLOOM_FILTER a\r\n", A + b"END\r\n"),
        (6.0, b"get SET_BLOOM_FILTER a BLOOM_FILTER\r\n",
         b"VALUE SET_BLOOM_FILTER 0 1\r\n1\r\n" + A + DIGEST + b"END\r\n"),
        (6.0, b"GET a b missing a BLOOM_FILTER\r\n",
         A + B + A + DIGEST + b"END\r\n"),
        (6.0, b"GET future SET_BLOOM_FILTER\r\n",
         b"VALUE SET_BLOOM_FILTER 0 1\r\n1\r\nEND\r\n"),
        (16.0, b"get future exp b\r\nget b\r\nGET future\r\n",
         b"VALUE future 7 1\r\nf\r\n" + B + b"END\r\n" + B + b"END\r\n"
         b"VALUE future 7 1\r\nf\r\nEND\r\n"),
    ]

    def test_replies_match_the_recorded_bytes(self):
        async def main():
            server = MemcachedServer(bloom_config=self.TINY)
            clock = [0.0]
            server._clock = lambda: clock[0]
            await server.start()
            try:
                connection, transport = connect(server)
                for at, request, reply in self.SCRIPT:
                    clock[0] = at
                    connection.data_received(request)
                    assert transport.writes.pop() == reply, request
                stats = server.store.stats
                # the reserved keys are no lookups; "exp" expired once
                assert (stats.gets, stats.hits, stats.misses,
                        stats.expirations) == (20, 13, 7, 1)
            finally:
                await server.stop()

        asyncio.run(main())
