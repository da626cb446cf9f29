"""Differential suite: the incremental parsers vs a readline-style framer.

``ReplyParser`` and ``CommandParser`` see a TCP stream in whatever pieces
the kernel hands over; the reference below sees it whole and frames it the
obvious blocking way — ``readline()``, then ``read(n)`` for a data block.
Hypothesis writes reply streams (pipelined ``get`` replies, their
``VALUE`` headers with or without a cas unique, store replies and
``set_multi`` bursts, values that contain ``\\r\\n``, ``END\\r\\n`` and ``VALUE ``, error
lines, at most one malformed or garbage line or unterminated block) and
command streams (multi-key ``get`` / ``GET``, ``set``, malformed lines),
and each is fed whole, byte by byte and cut at arbitrary points: however
it is cut, the parser must return the reference's results and lose sync
exactly where the reference does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import protocol as proto
from repro.net.parser import (
    ERROR_PREFIXES,
    MAX_LINE_LENGTH,
    BadCommand,
    CommandParser,
    Desync,
    ErrorLine,
    LineReply,
    ReplyParser,
    CountReply,
    ValuesReply,
)
from tests.net.test_parser import STORE_TOKENS

# ------------------------------------------------------------ the reference


class Starved(Exception):
    """The stream ended inside a frame."""


class Fault(Exception):
    """The stream cannot be framed from here on."""


class Stream:
    """A blocking reader over bytes that have all arrived already."""

    def __init__(self, wire):
        self.wire = wire
        self.at = 0

    def readline(self):
        end = self.wire.find(b"\n", self.at)
        length = (len(self.wire) if end < 0 else end) - self.at
        if length > MAX_LINE_LENGTH:
            raise Fault("line too long")
        if end < 0:
            raise Starved
        line, self.at = self.wire[self.at:end + 1], end + 1
        return line

    def read(self, count):
        if self.at + count > len(self.wire):
            raise Starved
        data, self.at = self.wire[self.at:self.at + count], self.at + count
        return data


def reference_header(line):
    """``(key, bytes)`` of a strict ``VALUE`` line (flags and a cas unique
    must be well-formed, and are dropped)."""
    if not line.endswith(b"\r\n"):
        raise Fault("bare newline")
    parts = line[:-2].split(b" ")
    if len(parts) not in (4, 5):
        raise Fault("field count")
    key, numbers = parts[1], parts[2:]
    if not 0 < len(key) <= 250 or min(key) <= 0x20:
        raise Fault("key")
    for number in numbers:
        if not number.isdigit() or len(number) > 20:
            raise Fault("not an unsigned decimal")
    try:
        key = key.decode("utf-8")
    except UnicodeDecodeError:
        raise Fault("key")
    return key, int(numbers[1])


def reference_line(stream):
    line = stream.readline()
    return line[:-2] if line.endswith(b"\r\n") else line[:-1]


def reference_reply(stream, shape):
    if isinstance(shape, CountReply):
        stored, error = 0, None
        for _ in range(shape.left):
            line = reference_line(stream)
            if line == b"STORED":
                stored += 1
            elif line.startswith(ERROR_PREFIXES):
                error = error or ErrorLine(line)
            elif line != b"NOT_STORED":
                raise Fault("not a storage reply")
        return stored if error is None else error
    if isinstance(shape, LineReply):
        line = stream.readline()
        line = line[:-2] if line.endswith(b"\r\n") else line[:-1]
        if line.startswith(ERROR_PREFIXES):
            return ErrorLine(line)
        if not shape.validator(line):
            raise Fault("not this command's reply")
        return line
    values = {}
    while True:
        line = stream.readline()
        if line.startswith(b"VALUE "):
            key, count = reference_header(line)
            block = stream.read(count + 2)
            if not block.endswith(b"\r\n"):
                raise Fault("unterminated block")
            values[key] = block[:-2]
            continue
        line = line[:-2] if line.endswith(b"\r\n") else line[:-1]
        if line == b"END":
            return values
        if line.startswith(ERROR_PREFIXES):
            return ErrorLine(line)
        raise Fault("garbage")


def reference_replies(shapes, wire):
    """``(results, lost sync?)`` — what a blocking client would see."""
    stream, results = Stream(wire), []
    try:
        for shape in shapes:
            results.append(reference_reply(stream, shape))
        if stream.at < len(wire):
            raise Fault("unsolicited bytes")
    except Starved:
        return results, False
    except Fault:
        return results, True
    return results, False


STORAGE = ("set", "add")


def reference_commands(wire):
    stream, out = Stream(wire), []
    try:
        while stream.at < len(wire):
            try:
                request = proto.parse_command_line(stream.readline())
            except ProtocolError as error:
                out.append(BadCommand(str(error)))
                continue
            if request.command in STORAGE:
                block = stream.read(request.num_bytes + 2)
                if not block.endswith(b"\r\n"):
                    out.append(BadCommand(
                        "data block not terminated by CRLF", fatal=True
                    ))
                    break
                request.value = block[:-2]
            out.append(request)
    except Starved:
        pass
    except Fault:
        out.append(BadCommand("line too long", fatal=True))
    return out


# --------------------------------------------------------------- the parsers


def pieces(wire, cuts):
    """*wire* whole (``None``), byte by byte (``"bytes"``) or cut at the
    given offsets."""
    if cuts is None:
        return [wire]
    if cuts == "bytes":
        return [wire[i:i + 1] for i in range(len(wire))]
    edges = [0] + sorted(cut % (len(wire) + 1) for cut in cuts) + [len(wire)]
    return [wire[a:b] for a, b in zip(edges, edges[1:])]


def parsed_replies(shapes, chunks):
    parser = ReplyParser()
    for shape in shapes:
        parser.expect(shape)
    results, desynced = [], False
    for chunk in chunks:
        try:
            results += parser.feed(chunk)
        except Desync as fault:
            results += fault.results
            desynced = True
            break
    return results, desynced, parser


def parsed_commands(chunks):
    parser = CommandParser()
    out = []
    for chunk in chunks:
        out += parser.feed(chunk)
    return out, parser


# ---------------------------------------------------------------- strategies

KEYS = st.text(alphabet="abcXYZ019:_-/é日", min_size=1, max_size=20)
FRAGMENTS = [b"\r\n", b"END\r\n", b"VALUE ", b"VALUE k 0 1\r\n", b"ERROR\r\n",
             b"STORED\r\n", b"\n", b"\r", b" ", b"\x00\xff"]
VALUES = st.lists(
    st.sampled_from(FRAGMENTS) | st.binary(max_size=12), max_size=6
).map(b"".join)
ERRORS = st.sampled_from(
    [b"ERROR", b"CLIENT_ERROR bad data chunk", b"SERVER_ERROR out of memory"]
)
BAD_LINES = [
    b"VALUE k 0 -2", b"VALUE k 0 +3", b"VALUE k 0 1_0", b"VALUE k 0 ",
    b"VALUE k  3", b"VALUE k 0 3 -1", b"VALUE k 0 3 4 5", b"VALUE  0 3",
    b"VALUE k\t 0 3", b"VALUE \xff 0 3", b"VALUE k 0 3\r", b"VALUE k 0 0\n",
    b"VALUE k 0 7", b"WAT 42", b"", b"STORED", b"END",
]


@st.composite
def reply_streams(draw):
    """``(shapes, wire, faulted?)``: pipelined replies as frames, with at
    most one fault spliced in."""
    shapes, frames = [], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            shapes.append(LineReply(STORE_TOKENS))
            line = draw(st.sampled_from([b"STORED", b"NOT_STORED"]) | ERRORS)
            frames.append(line + b"\r\n")
            continue
        if kind == 1:  # a set_multi burst: one shape, one frame per line
            lines = draw(st.lists(
                st.sampled_from([b"STORED", b"NOT_STORED"]) | ERRORS,
                min_size=1, max_size=8,
            ))
            shapes.append(CountReply(len(lines)))
            frames += [line + b"\r\n" for line in lines]
            continue
        shapes.append(ValuesReply())
        with_cas = draw(st.booleans())
        for _ in range(draw(st.integers(0, 40) | st.integers(0, 3))):
            key, value = draw(KEYS), draw(VALUES)
            block = proto.value_response(
                key, draw(st.integers(0, 2 ** 32 - 1)), value
            )
            if with_cas:  # " <cas unique>" before the header's CRLF
                header, data = block.split(b"\r\n", 1)
                cas = draw(st.integers(0, 2 ** 64 - 1))
                block = b"%s %d\r\n%s" % (header, cas, data)
            frames.append(block)
        frames.append(draw(st.just(b"END") | ERRORS) + b"\r\n")
    fault = draw(st.none() | st.integers(0, max(0, len(frames) - 1)))
    if fault is not None and frames:
        if draw(st.booleans()):
            frames.insert(fault, draw(st.sampled_from(BAD_LINES)) + b"\r\n")
        else:  # the frame loses its terminator
            frames[fault] = frames[fault][:-2] + b"XY"
    return shapes, b"".join(frames), fault is not None and bool(frames)


@st.composite
def command_streams(draw):
    frames = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5))
        if kind <= 1:
            verb = "get" if kind else "GET"
            keys = draw(st.lists(KEYS, min_size=1, max_size=64))
            frames.append(f"{verb} {' '.join(keys)}\r\n".encode())
        elif kind <= 3:
            value = draw(VALUES)
            tail = " noreply" if draw(st.booleans()) else ""
            header = f"set {draw(KEYS)} 5 0 {len(value)}{tail}\r\n"
            frames.append(header.encode() + value + b"\r\n")
        elif kind == 4:
            frames.append(f"delete {draw(KEYS)}\r\n".encode())
        else:
            frames.append(draw(st.sampled_from([
                b"bogus nonsense\r\n", b"get \r\n", b"get a  b\r\n", b"\r\n",
                b"set k 0 0\r\n", b"get \xff\r\n", b"GET " + b"k" * 251 + b"\n",
            ])))
    faulted = bool(frames) and draw(st.integers(0, 4)) == 0
    if faulted:  # one frame loses its terminator
        fault = draw(st.integers(0, len(frames) - 1))
        frames[fault] = frames[fault][:-2] + b"XY"
    return b"".join(frames), faulted


CUTS = st.none() | st.just("bytes") | st.lists(
    st.integers(0, 1 << 20), max_size=12
)


# --------------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(reply_streams(), CUTS)
def test_reply_parser_matches_the_readline_reference(stream, cuts):
    shapes, wire, faulted = stream
    expected, expected_desync = reference_replies(shapes, wire)
    results, desynced, parser = parsed_replies(shapes, pieces(wire, cuts))
    assert results == expected
    assert desynced == expected_desync
    if not faulted:
        assert not desynced and len(results) == len(shapes)
        assert len(parser._buf) == 0 and parser.pending == 0


@settings(max_examples=150, deadline=None)
@given(command_streams(), CUTS)
def test_command_parser_matches_the_readline_reference(stream, cuts):
    wire, faulted = stream
    expected = reference_commands(wire)
    out, parser = parsed_commands(pieces(wire, cuts))
    assert out == expected
    if not faulted:  # nothing is left over: the next command frames cleanly
        assert parser.feed(b"get tail\r\n") == [proto.Request("get", ["tail"])]
