"""Unit tests for the sans-IO incremental protocol parsers.

Both directions are pure byte machines, so these tests drive them
byte-by-byte — the chunk boundaries a real TCP stream produces are
adversarial by construction here.
"""

import pytest

from repro.net.parser import (
    MAX_LINE_LENGTH,
    BadCommand,
    CommandParser,
    Desync,
    ErrorLine,
    LineReply,
    ReplyParser,
    StatsReply,
    ValuesReply,
    arith_token,
)

#: a one-line store reply's validator: the client frames its storage
#: replies with a CountReply now, these tests frame them with LineReply
STORE_TOKENS = frozenset((b"STORED", b"NOT_STORED")).__contains__


def feed_bytewise(parser, data):
    """Feed one byte at a time; collect every completed reply."""
    out = []
    for i in range(len(data)):
        out.extend(parser.feed(data[i:i + 1]))
    return out


class TestReplyParser:
    def test_line_reply_single_chunk(self):
        parser = ReplyParser()
        parser.expect(LineReply(STORE_TOKENS))
        assert parser.feed(b"STORED\r\n") == [b"STORED"]
        assert not parser._shapes
        assert len(parser._buf) == 0

    def test_line_reply_byte_at_a_time(self):
        parser = ReplyParser()
        parser.expect(LineReply(STORE_TOKENS))
        assert feed_bytewise(parser, b"NOT_STORED\r\n") == [b"NOT_STORED"]

    def test_values_reply_with_crlf_inside_value(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        payload = b"a\r\nb\r\nc"
        wire = b"VALUE k 7 %d\r\n%s\r\nEND\r\n" % (len(payload), payload)
        assert feed_bytewise(parser, wire) == [{"k": payload}]

    def test_a_gets_reply_header_desyncs(self):
        # nothing in the system sends gets, so a header carrying its cas
        # id is a line the stream cannot have meant
        parser = ReplyParser()
        parser.expect(ValuesReply())
        with pytest.raises(Desync, match="malformed VALUE line"):
            parser.feed(b"VALUE k 0 1 42\r\nx\r\nEND\r\n")

    def test_empty_values_reply(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        assert parser.feed(b"END\r\n") == [{}]

    def test_a_repeated_key_keeps_its_last_block(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        [values] = parser.feed(
            b"VALUE a 0 1\r\n1\r\nVALUE b 0 1\r\n2\r\n"
            b"VALUE a 0 1\r\n3\r\nEND\r\n"
        )
        assert values == {"a": b"3", "b": b"2"}

    def test_many_pipelined_replies_in_one_chunk(self):
        parser = ReplyParser()
        for _ in range(3):
            parser.expect(LineReply(STORE_TOKENS))
        parser.expect(ValuesReply())
        wire = b"STORED\r\nSTORED\r\nNOT_STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\n"
        out = parser.feed(wire)
        assert out[:3] == [b"STORED", b"STORED", b"NOT_STORED"]
        assert out[3] == {"k": b"v"}

    def test_reply_split_at_every_boundary(self):
        wire = b"VALUE key 5 4\r\nwxyz\r\nEND\r\n"
        for split in range(1, len(wire)):
            parser = ReplyParser()
            parser.expect(ValuesReply())
            out = parser.feed(wire[:split])
            out += parser.feed(wire[split:])
            assert len(out) == 1, f"split at {split}"
            assert out[0] == {"key": b"wxyz"}

    def test_stats_reply(self):
        parser = ReplyParser()
        parser.expect(StatsReply())
        [stats] = feed_bytewise(
            parser, b"STAT cmd_get 4\r\nSTAT version a b c\r\nEND\r\n"
        )
        assert stats == {"cmd_get": "4", "version": "a b c"}

    def test_error_line_completes_without_desync(self):
        parser = ReplyParser()
        parser.expect(LineReply(STORE_TOKENS))
        parser.expect(LineReply(STORE_TOKENS))
        out = parser.feed(b"SERVER_ERROR oom\r\nSTORED\r\n")
        assert isinstance(out[0], ErrorLine)
        assert out[1] == b"STORED"

    def test_error_line_aborts_values_reply(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        [result] = parser.feed(b"VALUE k 0 1\r\nx\r\nSERVER_ERROR oom\r\n")
        assert isinstance(result, ErrorLine)

    def test_validator_mismatch_desyncs(self):
        parser = ReplyParser()
        parser.expect(LineReply(STORE_TOKENS))
        with pytest.raises(Desync):
            parser.feed(b"BANANA\r\n")

    def test_garbage_in_values_reply_desyncs(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        with pytest.raises(Desync):
            parser.feed(b"WAT 42\r\n")

    def test_bad_block_terminator_desyncs(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        with pytest.raises(Desync):
            parser.feed(b"VALUE k 0 3\r\nabcXYEND\r\n")

    def test_desync_carries_replies_completed_before_the_fault(self):
        # One chunk holds a good reply *and* garbage: the good frame is
        # unambiguous and must survive on the exception.
        parser = ReplyParser()
        parser.expect(ValuesReply())
        parser.expect(ValuesReply())
        with pytest.raises(Desync) as info:
            parser.feed(b"VALUE k 0 2\r\nv0\r\nEND\r\nWAT 42\r\n")
        assert info.value.results == [{"k": b"v0"}]
        # and the parser stays dead afterwards
        with pytest.raises(Desync):
            parser.feed(b"END\r\n")

    def test_unsolicited_bytes_desync(self):
        parser = ReplyParser()
        with pytest.raises(Desync):
            parser.feed(b"STORED\r\n")

    def test_no_rescan_of_partial_line(self):
        # The scan cursor must advance even while the line is incomplete.
        parser = ReplyParser()
        parser.expect(LineReply())
        parser.feed(b"A" * 1000)
        assert parser._scan == 1000
        [line] = parser.feed(b"\r\n")
        assert line == b"A" * 1000

    @pytest.mark.parametrize("header", [
        b"VALUE k 0 -2",        # int() takes it; the "block" is the header's
        b"VALUE k 0 +3",        # own CRLF and the reply frames as value b""
        b"VALUE k 0 1_0",
        b"VALUE k 0 ",          # empty <bytes>
        b"VALUE k  3",          # empty <flags>
        b"VALUE k -0 3",
        b"VALUE k 0x1 3",
        b"VALUE k 0 3 -7",      # a signed fourth field
        b"VALUE k 0 3 ",        # an empty fourth field
        b"VALUE k 0 3 4 5",     # a field too many
        b"VALUE  0 3",          # empty key
        b"VALUE " + b"k" * 251 + b" 0 3",
        b"VALUE k 0 " + b"9" * 21,
        b"VALUE \xff\xfe 0 3",  # key is not UTF-8
    ])
    def test_a_header_that_is_not_strictly_decimal_desyncs(self, header):
        wire = header + b"\r\nabc\r\nEND\r\n"
        for feed in (ReplyParser.feed, feed_bytewise):
            parser = ReplyParser()
            parser.expect(ValuesReply())
            with pytest.raises(Desync, match="malformed VALUE line"):
                feed(parser, wire)

    def test_a_header_ending_in_a_bare_newline_desyncs(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        with pytest.raises(Desync, match="malformed VALUE line"):
            parser.feed(b"VALUE k 0 1\nv\r\nEND\r\n")

    def test_bad_terminator_after_good_blocks_byte_at_a_time(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        with pytest.raises(Desync, match="not terminated by CRLF"):
            feed_bytewise(
                parser, b"VALUE a 0 1\r\nx\r\nVALUE b 0 3\r\nabc\rXEND\r\n"
            )

    def test_error_line_after_two_good_blocks(self):
        wire = (b"VALUE a 0 1\r\nx\r\nVALUE b 0 1\r\ny\r\n"
                b"SERVER_ERROR out of memory\r\nEND\r\n")
        for feed in (ReplyParser.feed, feed_bytewise):
            parser = ReplyParser()
            parser.expect(ValuesReply())
            parser.expect(ValuesReply())
            failed, empty = feed(parser, wire)
            assert failed == ErrorLine(b"SERVER_ERROR out of memory")
            assert empty == {}  # the failed command's blocks went with it
            assert not parser._shapes and len(parser._buf) == 0

    def test_a_partial_block_is_not_rescanned(self):
        # Its header is matched again on every feed; its bytes are never
        # looked at until they are all there.
        value = b"\r\nEND\r\nVALUE " * 4096
        parser = ReplyParser()
        parser.expect(ValuesReply())
        wire = b"VALUE k 0 %d\r\n%s\r\nEND\r\n" % (len(value), value)
        out = []
        for start in range(0, len(wire), 1000):
            out += parser.feed(wire[start:start + 1000])
            assert parser._scan == 0 or out
        assert out == [{"k": value}] and len(parser._buf) == 0

    def test_only_the_tail_is_buffered_and_the_chunk_is_not_mutated(self):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        parser.expect(ValuesReply())
        chunk = bytearray(b"VALUE k 0 2\r\nv0\r\nEND\r\nVALUE k 0 2\r\nv")
        before = bytes(chunk)
        [values] = parser.feed(chunk)
        assert chunk == before
        assert type(values["k"]) is bytes and values == {"k": b"v0"}
        assert len(parser._buf) == len(b"VALUE k 0 2\r\nv")
        [values] = parser.feed(b"1\r\nEND\r\n")
        assert type(values["k"]) is bytes and values == {"k": b"v1"}
        assert len(parser._buf) == 0

    @pytest.mark.parametrize("shape", [LineReply(), ValuesReply(),
                                       StatsReply()])
    def test_a_line_that_never_ends_is_a_desync_not_a_buffer(self, shape):
        parser = ReplyParser()
        parser.expect(shape)
        fed = 0
        with pytest.raises(Desync, match="longer than"):
            for _ in range(64):
                parser.feed(b"x" * 65536)
                fed += 65536
        assert fed <= MAX_LINE_LENGTH + 65536
        assert len(parser._buf) <= MAX_LINE_LENGTH + 65536

    def test_the_line_bound_is_the_same_whole_or_in_pieces(self):
        # the bound is on what precedes the newline, a "\r" included
        for length, ok in ((MAX_LINE_LENGTH, True),
                           (MAX_LINE_LENGTH + 1, False)):
            wire = b"y" * (length - 1) + b"\r\n"
            for feed in (ReplyParser.feed, feed_bytewise):
                parser = ReplyParser()
                parser.expect(LineReply())
                if ok:
                    assert feed(parser, wire) == [wire[:-2]]
                else:
                    with pytest.raises(Desync, match="longer than"):
                        feed(parser, wire)

    def test_arith_token(self):
        assert arith_token(b"42")
        assert arith_token(b"NOT_FOUND")
        assert not arith_token(b"-1")
        assert not arith_token(b"STORED")


class TestCommandParser:
    def test_simple_get(self):
        parser = CommandParser()
        [request] = parser.feed(b"get k\r\n")
        assert request.command == "get"
        assert request.keys == ["k"]

    def test_storage_command_block_across_chunks(self):
        parser = CommandParser()
        assert parser.feed(b"set k 0 0 5\r\nab") == []
        [request] = parser.feed(b"cde\r\n")
        assert request.command == "set"
        assert request.value == b"abcde"

    def test_pipelined_burst_in_one_chunk(self):
        parser = CommandParser()
        out = parser.feed(
            b"set a 0 0 1\r\nx\r\nget a\r\ndelete a\r\n"
        )
        assert [r.command for r in out] == ["set", "get", "delete"]

    def test_malformed_line_is_nonfatal(self):
        parser = CommandParser()
        bad, request = parser.feed(b"bogus nonsense\r\nget k\r\n")
        assert isinstance(bad, BadCommand)
        assert not bad.fatal
        assert request.command == "get"

    def test_bad_block_terminator_is_fatal(self):
        parser = CommandParser()
        [bad] = parser.feed(b"set k 0 0 3\r\nabcXYget k\r\n")
        assert isinstance(bad, BadCommand)
        assert bad.fatal
        # The parser is dead: framing is unknowable from here on.
        assert parser.feed(b"get k\r\n") == []

    def test_a_line_that_never_ends_is_fatal_not_buffered(self):
        parser = CommandParser()
        out = []
        for _ in range(64):
            out += parser.feed(b"x" * 65536)
        assert out == [BadCommand("line too long", fatal=True)]
        assert len(parser._buf) <= MAX_LINE_LENGTH + 65536
        assert parser.feed(b"\r\nget k\r\n") == []

    def test_the_longest_multiget_fits_the_line_bound(self):
        keys = [f"{i:03d}".ljust(250, "k") for i in range(64)]
        line = ("get " + " ".join(keys) + "\r\n").encode()
        assert len(line) <= MAX_LINE_LENGTH
        [request] = CommandParser().feed(line)
        assert request.keys == keys
        [bad] = CommandParser().feed(b"get " + b"k" * MAX_LINE_LENGTH + b"\r\n")
        assert bad == BadCommand("line too long", fatal=True)

    def test_noreply_flag_round_trips(self):
        parser = CommandParser()
        [request] = parser.feed(b"set k 0 0 1 noreply\r\nx\r\n")
        assert request.noreply
