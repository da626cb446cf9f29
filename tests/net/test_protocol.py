"""Tests for memcached text-protocol framing."""

import pytest

from repro.errors import ProtocolError
from repro.net import protocol as proto


class TestParseGet:
    def test_single_key(self):
        req = proto.parse_command_line(b"get foo\r\n")
        assert req.command == "get" and req.keys == ["foo"]

    def test_multi_key(self):
        req = proto.parse_command_line(b"get a b c\r\n")
        assert req.keys == ["a", "b", "c"]

    def test_missing_key_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"get\r\n")
        with pytest.raises(ProtocolError, match="bad key length: 0"):
            proto.parse_command_line(b"get \r\n")

    @pytest.mark.parametrize("verb", [b"get", b"GET"])
    def test_every_key_of_a_multiget_is_validated(self, verb):
        keys = [f"key-{i}" for i in range(64)]
        line = verb + b" " + " ".join(keys).encode() + b"\r\n"
        assert proto.parse_command_line(line).keys == keys
        for bad, message in (
            ("", "bad key length: 0"),            # a doubled space
            ("x" * 251, "bad key length: 251"),
            ("ctrl\x01", "whitespace/control"),
            ("é" * 126, "bad key length: 252"),    # 126 characters
        ):
            wire = " ".join(keys[:40] + [bad] + keys[40:]).encode()
            with pytest.raises(ProtocolError, match=message):
                proto.parse_command_line(verb + b" " + wire + b"\r\n")


class TestParseStorage:
    def test_set(self):
        req = proto.parse_command_line(b"set key 7 60 5\r\n")
        assert req.command == "set"
        assert req.keys == ["key"]
        assert req.flags == 7 and req.exptime == 60 and req.num_bytes == 5
        assert not req.noreply

    def test_noreply(self):
        req = proto.parse_command_line(b"set key 0 0 3 noreply\r\n")
        assert req.noreply

    def test_add_replace(self):
        assert proto.parse_command_line(b"add k 0 0 1\r\n").command == "add"
        with pytest.raises(ProtocolError, match="unknown command 'replace'"):
            proto.parse_command_line(b"replace k 0 0 1\r\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"set key 0 0\r\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"set key x 0 5\r\n")

    def test_negative_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"set key 0 0 -1\r\n")


#: storage line -> the parsed ``Request`` fields, or the ``ProtocolError``
#: message it must raise (a regex)
STORAGE_TABLE = [
    (b"SET key 7 60 5\r\n",
     dict(command="set", keys=["key"], flags=7, exptime=60, num_bytes=5,
          noreply=False)),
    (b"set key 0 0 3 noreply\r\n",
     dict(command="set", keys=["key"], num_bytes=3, noreply=True)),
    (b"Add key 1 -1 2\r\n",
     dict(command="add", keys=["key"], flags=1, exptime=-1, num_bytes=2)),
    # verbs the web tier never sends are unknown commands
    (b"cas key 1 2 3 99\r\n", "unknown command 'cas'"),
    (b"cas key 1 2 3 99 noreply\r\n", "unknown command 'cas'"),
    (b"append key 0 0 0\r\n", "unknown command 'append'"),
    (b"set key 0 0 5\n",
     dict(command="set", keys=["key"], num_bytes=5, noreply=False)),
    ("set \u00e9t\u00e9 0 0 1\r\n".encode(), dict(keys=["\u00e9t\u00e9"])),
    (b"set key 0 0\r\n", "set requires: key flags exptime bytes$"),
    (b"set key 0 0 5 6 7\r\n", "set requires: key flags exptime bytes$"),
    (b"set key x 0 5\r\n", "non-numeric storage argument in 'set key x 0 5'"),
    (b"set key 0 0 five\r\n", "non-numeric storage argument"),
    (b"set key 0 0 -1\r\n", "negative byte count: -1"),
    (b"set \xff\xfe 0 0 1\r\n", "not valid UTF-8"),
    (b"set " + b"k" * 251 + b" 0 0 1\r\n", "bad key length: 251"),
    (b"set " + "\u00e9".encode() * 126 + b" 0 0 1\r\n", "bad key length: 252"),
    (b"set  0 0 1\r\n", "bad key length: 0"),
    (b"set k\x01y 0 0 1\r\n", "whitespace/control chars"),
    (b"set k\ty 0 0 1\r\n", "whitespace/control chars"),
    ("set k\u00a0y 0 0 1\r\n".encode(), "whitespace/control chars"),
]


@pytest.mark.parametrize("line, expected", STORAGE_TABLE)
def test_storage_line_parse_table(line, expected):
    if isinstance(expected, str):
        with pytest.raises(ProtocolError, match=expected):
            proto.parse_command_line(line)
        return
    request = proto.parse_command_line(line)
    for name, value in expected.items():
        assert getattr(request, name) == value, name
    assert request.value == b""


class TestParseOther:
    def test_delete(self):
        req = proto.parse_command_line(b"delete key\r\n")
        assert req.command == "delete" and req.keys == ["key"]

    def test_delete_noreply(self):
        assert proto.parse_command_line(b"delete key noreply\r\n").noreply

    def test_admin_commands(self):
        for cmd in (b"stats", b"quit", b"flush_all"):
            assert proto.parse_command_line(cmd + b"\r\n").command == cmd.decode()

    def test_unknown_command(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"increment key\r\n")

    def test_empty_line(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"\r\n")

    def test_non_utf8(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"get \xff\xfe\r\n")


class TestValidateKey:
    def test_accepts_normal_keys(self):
        proto.validate_key("page:Alan_Turing")

    def test_rejects_whitespace(self):
        with pytest.raises(ProtocolError):
            proto.validate_key("has space")

    def test_rejects_control_chars(self):
        with pytest.raises(ProtocolError):
            proto.validate_key("has\ttab")

    def test_rejects_overlong(self):
        with pytest.raises(ProtocolError):
            proto.validate_key("x" * 251)
        proto.validate_key("x" * 250)  # boundary OK

    def test_rejects_empty(self):
        with pytest.raises(ProtocolError):
            proto.validate_key("")

    def test_the_limit_is_bytes_on_the_wire_not_characters(self):
        # 200 characters, 400 bytes: a stock memcached answers CLIENT_ERROR.
        with pytest.raises(ProtocolError, match="bad key length: 400"):
            proto.validate_key("é" * 200)
        proto.validate_key("é" * 125)  # 250 bytes: the boundary
        with pytest.raises(ProtocolError, match="bad key length: 252"):
            proto.validate_key("é" * 126)


class TestValidateKeys:
    """The batch validator must decide exactly as the per-key one does."""

    GOOD = ["a", "page:Alan_Turing", "x" * 250, "é" * 125, "日本語"]
    BAD = ["", "x" * 251, "é" * 126, "has space", "tab\t", "nl\n",
           "nbsp\u00a0", "wide\u3000space", "nul\x00"]

    def test_accepts_what_validate_key_accepts(self):
        proto.validate_keys(self.GOOD)
        proto.validate_keys(tuple(self.GOOD))
        proto.validate_keys([])

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("position", [0, 2, 5])
    def test_raises_the_offending_keys_own_error(self, bad, position):
        keys = self.GOOD[:position] + [bad] + self.GOOD[position:]
        with pytest.raises(ProtocolError) as scalar:
            proto.validate_key(bad)
        with pytest.raises(ProtocolError) as batch:
            proto.validate_keys(keys)
        assert str(batch.value) == str(scalar.value)


class TestResponses:
    def test_value_response(self):
        assert (
            proto.value_response("k", 3, b"abc")
            == b"VALUE k 3 3\r\nabc\r\n"
        )

    def test_fixed_responses(self):
        assert proto.END == b"END\r\n"
        assert proto.STORED == b"STORED\r\n"
        assert proto.DELETED == b"DELETED\r\n"
        assert proto.NOT_FOUND == b"NOT_FOUND\r\n"
        assert proto.NOT_STORED == b"NOT_STORED\r\n"

    def test_errors(self):
        assert proto.error_response("boom") == b"SERVER_ERROR boom\r\n"
        assert proto.client_error_response("bad") == b"CLIENT_ERROR bad\r\n"

    def test_stats_response(self):
        payload = proto.stats_response({"cmd_get": 3})
        assert payload == b"STAT cmd_get 3\r\nEND\r\n"
        assert proto.stats_response({}) == b"END\r\n"

    def test_reserved_key_names(self):
        # Section V-A3 spelling, exactly.
        assert proto.KEY_SNAPSHOT == "SET_BLOOM_FILTER"
        assert proto.KEY_FETCH_DIGEST == "BLOOM_FILTER"
