"""Incremental memcached ASCII framing: feed bytes, get complete frames.

This module is the sans-IO core of the pipelined transport (the
emcache-style ``feed_data`` design): byte chunks go in, complete protocol
frames come out, and nothing is ever re-scanned — the parsers remember how
far they looked for a line terminator and resume from there on the next
chunk.  No line may exceed :data:`MAX_LINE_LENGTH`: a peer that sends more
without a newline is cut off instead of buffered.

Two directions:

* :class:`ReplyParser` — the client side.  Commands register a *reply
  shape* (:class:`LineReply`, :class:`ValuesReply`, :class:`StatsReply`,
  :class:`CountReply`; a pipelined burst registers one for all its
  replies) in FIFO order as they are written; :meth:`ReplyParser.feed`
  matches server bytes against the head shape and emits one result per
  completed reply, in order.  A chunk is framed where it arrived — only
  the tail of an incomplete frame is copied into the parser's buffer —
  and a ``VALUE`` block costs one strict, bounded header match, one slice
  and one entry in the reply's ``{key: value}`` dict (flags are checked,
  not kept: nothing on the client reads them; a header with a fourth
  field, a ``gets`` cas id, is malformed); a ``STORED`` line costs one
  ``startswith``.  A reply that cannot
  belong to the expected shape raises :class:`Desync`: the stream
  position is unknown from that byte on, and the connection owner must
  poison the transport rather than pair a later line with a queued
  command.  Complete
  ``ERROR``/``CLIENT_ERROR``/``SERVER_ERROR`` lines are *not* desyncs —
  the stream stays framed — and surface as :class:`ErrorLine` results so
  the caller can raise without dropping the connection.

* :class:`CommandParser` — the server side.  Yields complete
  :class:`~repro.net.protocol.Request` objects (data block attached for
  storage commands); malformed input surfaces as :class:`BadCommand`
  entries that the server answers with ``CLIENT_ERROR``, fatal ones (an
  unterminated data block, an over-long line — framing is gone) drop the
  connection, as memcached does.

Both parsers are pure byte machines — no I/O, no asyncio — so they unit
test byte-by-byte and serve any transport (the asyncio protocol client,
the server's ``data_received``, tests).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.errors import ProtocolError, ServerBusyError
from repro.net import protocol as proto

__all__ = [
    "BadCommand",
    "CommandParser",
    "CountReply",
    "Desync",
    "ErrorLine",
    "LineReply",
    "ReplyParser",
    "StatsReply",
    "ValuesReply",
]

#: complete error replies keep the stream framed (they end at their CRLF)
ERROR_PREFIXES = (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")

#: Longest line either parser accepts, and so the most it buffers while
#: looking for a newline.  Sized for the longest line the protocol needs —
#: a ``get`` of 64 keys of 250 bytes is 16 069 bytes — and deliberately
#: not an option: the peer on the other side must agree on it.
MAX_LINE_LENGTH = 16 * 1024

#: One well-formed ``VALUE <key> <flags> <bytes>`` header.
#: Applied anchored at a frame boundary, and bounded (key <= 250 bytes,
#: unsigned decimals <= 20 digits), so an attempt never looks further than
#: a header is long.  ``int()`` would also take ``-2``, ``+3`` and ``1_0``;
#: a byte count that is not what the server meant mis-frames the stream.
_VALUE_HEADER = re.compile(
    rb"VALUE ([^\x00-\x20]{1,250}) (\d{1,20}) (\d{1,20})\r\n"
).match


class Desync(Exception):
    """The reply stream no longer matches the pipelined command queue.

    Raised by :meth:`ReplyParser.feed`; every byte after the offending
    one is unattributable, so the connection must be poisoned.
    :attr:`results` carries the replies the same chunk *completed before*
    the fault — those frames are unambiguous and must still be delivered
    to their commands (dropping them would fail commands whose replies
    arrived intact).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.results: List["ReplyResult"] = []


@dataclass(frozen=True)
class ErrorLine:
    """A complete ``ERROR``-family reply line (stream still in sync)."""

    line: bytes

    @property
    def is_busy(self) -> bool:
        """True for the server's backpressure shed reply
        (``SERVER_ERROR busy ...``)."""
        return self.line.startswith(proto.BUSY_PREFIX)

    def raise_(self) -> None:
        text = self.line.decode("utf-8", "replace")
        if self.is_busy:
            # A shed, not a protocol fault: never transiently retried
            # (storms must not amplify), and the stream is still framed.
            raise ServerBusyError(text)
        raise ProtocolError(text)


class LineReply:
    """Expect exactly one reply line.

    Args:
        validator: called with the stripped line; ``False`` means the
            line cannot be this command's reply — a :class:`Desync`
            (error-family lines bypass the validator and complete the
            reply as :class:`ErrorLine`).
    """

    __slots__ = ("validator",)

    def __init__(self, validator: Optional[Callable[[bytes], bool]] = None):
        self.validator = validator


class ValuesReply:
    """Expect ``VALUE`` blocks terminated by ``END`` (get/gets family),
    *count* times over for a pipelined burst of gets; the result is
    ``{key: value}`` over the whole burst (of duplicate keys the last
    block wins) or, once every ``END`` has arrived, its first error line.
    One per burst: it holds progress."""

    __slots__ = ("left", "error")

    def __init__(self, count: int = 1) -> None:
        self.left, self.error = count, None


class StatsReply:
    """Expect ``STAT`` lines terminated by ``END``."""

    __slots__ = ()


class CountReply:
    """Expect *count* reply lines, each *hit* or *miss* — ``STORED`` /
    ``NOT_STORED`` for a pipelined storage burst, ``DELETED`` /
    ``NOT_FOUND`` for a ``delete`` — as one reply: how many were *hit*
    or, once every line has arrived, the first error line among them (so
    the stream stays framed and the caller raises once).  Any other line
    is a :class:`Desync`.  One per burst: it holds progress."""

    __slots__ = ("left", "hit", "miss", "hits", "error")

    def __init__(self, count: int, hit: bytes = b"STORED",
                 miss: bytes = b"NOT_STORED") -> None:
        self.left, self.hits, self.error = count, 0, None
        self.hit, self.miss = hit + b"\r\n", miss + b"\r\n"


ReplyShape = Union[LineReply, ValuesReply, StatsReply, CountReply]
ReplyResult = Union[bytes, ErrorLine, dict, int]


class ReplyParser:
    """Incremental reply framing for one pipelined client connection.

    Usage: :meth:`expect` once per command written (FIFO), then
    :meth:`feed` with each received chunk; completed replies come back in
    command order.  Only the tail of an incomplete frame is kept between
    feeds, with a scan cursor so a long line arriving in many chunks is
    never re-scanned.
    """

    def __init__(self) -> None:
        self._buf = bytearray()   # the incomplete tail of earlier chunks
        self._pos = 0             # start of the unconsumed region
        self._scan = 0            # how far we've looked for the next newline
        self._shapes: Deque[ReplyShape] = deque()
        self._dead = False        # a Desync happened; nothing more comes out
        # in-progress multi-frame reply state
        self._values: Dict[str, bytes] = {}
        self._stats: dict = {}

    def expect(self, shape: ReplyShape) -> None:
        """Register the reply shape of the next written command."""
        self._shapes.append(shape)

    # ---------------------------------------------------------------- feed

    def feed(self, data: bytes) -> List[ReplyResult]:
        """Frame *data*; return every reply it completed, in order.

        Raises:
            Desync: the stream cannot be matched to the expected shapes;
                the connection must be poisoned by the caller.  The
                exception's ``results`` holds replies this chunk
                completed *before* the fault — deliver them first.
        """
        if self._dead:
            raise Desync("reply stream already desynchronized")
        # With nothing waiting, frame straight off the chunk: a slice of
        # ``bytes`` is the finished value, a slice of the buffer needs a
        # second copy to become one.
        buf = self._buf
        if buf:
            buf += data
        src = buf or data
        self._pos = 0
        shapes = self._shapes
        out: List[ReplyResult] = []
        try:
            while shapes:
                shape = shapes[0]
                if isinstance(shape, ValuesReply):
                    result = self._step_values(src, shape)
                elif isinstance(shape, LineReply):
                    result = self._step_line(src, shape)
                elif isinstance(shape, CountReply):
                    result = self._step_count(src, shape)
                else:
                    result = self._step_stats(src)
                if result is None:  # the head reply is starved
                    break
                shapes.popleft()
                out.append(result)
            else:
                if self._pos < len(src):
                    raise Desync(
                        "unsolicited bytes with no command in flight: "
                        f"{bytes(src[self._pos: self._pos + 40])!r}"
                    )
        except Desync as exc:
            self._dead = True
            exc.results = out
            raise
        # Keep the unconsumed tail, once per feed: a chunk carrying k
        # pipelined replies costs one copy or shift, not k.
        pos = self._pos
        if src is buf:
            del buf[:pos]
        elif pos < len(src):
            buf += src[pos:]
        self._scan -= pos
        return out

    # ------------------------------------------------------------ plumbing

    def _take_line(self, src: bytes) -> Optional[bytes]:
        """The next complete line (CRLF stripped), consuming it; ``None``
        while incomplete.  Scanning resumes where the last call left off."""
        index = src.find(b"\n", self._scan)
        if (len(src) if index < 0 else index) - self._pos > MAX_LINE_LENGTH:
            raise Desync(f"reply line longer than {MAX_LINE_LENGTH} bytes")
        if index < 0:
            self._scan = len(src)
            return None
        line = bytes(src[self._pos:index])
        if line.endswith(b"\r"):
            line = line[:-1]
        self._pos = self._scan = index + 1
        return line

    def _step_line(
        self, src: bytes, shape: LineReply
    ) -> Optional[ReplyResult]:
        line = self._take_line(src)
        if line is None:
            return None
        if line.startswith(ERROR_PREFIXES):
            return ErrorLine(line)
        if shape.validator is not None and not shape.validator(line):
            raise Desync(f"unexpected reply line: {line!r}")
        return line

    def _step_count(self, src, shape: CountReply) -> Optional[ReplyResult]:
        hit, miss = shape.hit, shape.miss
        while shape.left:
            # Whole hit / miss lines are matched in place, without a frame.
            pos = self._pos
            if src.startswith(hit, pos):
                self._pos = pos + len(hit)
                shape.hits += 1
            elif src.startswith(miss, pos):
                self._pos = pos + len(miss)
            else:
                self._scan = max(pos, self._scan)
                line = self._take_line(src)
                if line is None:
                    return None
                if line.startswith(ERROR_PREFIXES):
                    shape.error = shape.error or ErrorLine(line)
                elif line + b"\r\n" == hit:  # ended by a bare LF
                    shape.hits += 1
                elif line + b"\r\n" != miss:
                    raise Desync(f"unexpected reply line: {line!r}")
            shape.left -= 1
        self._scan = max(self._pos, self._scan)
        return shape.hits if shape.error is None else shape.error

    def _step_values(
        self, src: bytes, shape: ValuesReply
    ) -> Optional[ReplyResult]:
        pos, values, size = self._pos, self._values, len(src)
        direct = type(src) is bytes  # else the buffer: copy slices out
        while True:
            # Well-formed blocks: one header match each, on a local cursor.
            header = _VALUE_HEADER(src, pos)
            if header is not None:
                key, count = header.group(1, 3)
                start = header.end()
                end = start + int(count)
                if end + 2 > size:
                    # The cursor stays on the partial block's header, which the
                    # next feed matches again; its bytes are never looked at.
                    self._pos, self._scan = pos, max(pos, self._scan)
                    return None
                if src[end] != 13 or src[end + 1] != 10:
                    raise Desync(
                        f"value of {int(count)} bytes not terminated by CRLF"
                    )
                try:
                    key = key.decode("utf-8")
                except UnicodeDecodeError:
                    raise Desync(
                        f"malformed VALUE line: {header.group()!r}"
                    ) from None
                value = src[start:end]
                values[key] = value if direct else bytes(value)
                pos = end + 2
                continue
            self._pos, self._scan = pos, max(pos, self._scan)
            # Anything else ends one get's reply or the stream.
            line = self._take_line(src)
            if line is None:
                return None
            if line.startswith(ERROR_PREFIXES):
                # A complete error reply; whatever VALUE blocks preceded
                # it belonged to this same (failed) burst.
                shape.error = shape.error or ErrorLine(line)
            elif line.startswith(b"VALUE "):
                raise Desync(f"malformed VALUE line: {line!r}")
            elif line != b"END":
                raise Desync(f"unexpected get response line: {line!r}")
            shape.left -= 1
            if not shape.left:
                self._values = {}
                return values if shape.error is None else shape.error
            pos = self._pos

    def _step_stats(self, src: bytes) -> Optional[ReplyResult]:
        while True:
            line = self._take_line(src)
            if line is None:
                return None
            if line == b"END":
                stats, self._stats = self._stats, {}
                return stats
            if line.startswith(ERROR_PREFIXES):
                self._stats = {}
                return ErrorLine(line)
            if not line.startswith(b"STAT "):
                raise Desync(f"unexpected stats line: {line!r}")
            try:
                _, name, value = line.decode("utf-8").split(" ", 2)
            except (ValueError, UnicodeDecodeError):
                raise Desync(f"malformed stats line: {line!r}")
            self._stats[name] = value


# --------------------------------------------------------------- server side


@dataclass(frozen=True)
class BadCommand:
    """A malformed request the server answers with ``CLIENT_ERROR``.

    ``fatal`` means framing is lost (an unterminated data block, a line
    over :data:`MAX_LINE_LENGTH`): the server must reply and then drop
    the connection, as memcached does.
    """

    message: str
    fatal: bool = False


CommandItem = Union[proto.Request, BadCommand]


class CommandParser:
    """Incremental request framing for one server connection.

    Feed received chunks; complete :class:`~repro.net.protocol.Request`
    objects (with their data block read and CRLF-checked) come out in
    order.  After a fatal :class:`BadCommand` the parser is dead — the
    stream position is unknowable — and yields nothing further.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0
        self._scan = 0
        self._pending: Optional[proto.Request] = None  # awaiting its block
        self._dead = False

    def feed(self, data: bytes) -> List[CommandItem]:
        """Append *data*; return every request it completed, in order."""
        if self._dead:
            return []
        self._buf += data
        out: List[CommandItem] = []
        while not self._dead:
            item = self._step()
            if item is None:
                break
            out.append(item)
        # One buffer shift per chunk, not per command (see ReplyParser).
        if self._pos:
            del self._buf[: self._pos]
            self._scan -= self._pos
            self._pos = 0
        return out

    def _step(self) -> Optional[CommandItem]:
        buf = self._buf
        request = self._pending
        if request is None:
            index = buf.find(b"\n", self._scan)
            reach = len(buf) if index < 0 else index
            if reach - self._pos > MAX_LINE_LENGTH:
                # Where this line ends is no longer worth finding out.
                self._dead = True
                return BadCommand("line too long", fatal=True)
            if index < 0:
                self._scan = len(buf)
                return None
            line = bytes(buf[self._pos: index + 1])
            self._pos = self._scan = index + 1
            try:
                request = proto.parse_command_line(line)
            except ProtocolError as exc:
                return BadCommand(str(exc))
            if request.command not in proto.STORAGE_COMMANDS:
                return request
        # A storage command: its data block, if it has all arrived (a
        # pipelined burst's usually has), in this same step.
        start = self._pos
        end = start + request.num_bytes
        if len(buf) < end + 2:
            self._pending = request
            return None
        self._pending = None
        self._pos = self._scan = end + 2
        if buf[end] != 13 or buf[end + 1] != 10:
            self._dead = True
            return BadCommand("data block not terminated by CRLF", fatal=True)
        request.value = bytes(buf[start:end])
        return request


# Shared reply-token validators (the per-command contracts the old
# readline client enforced inline).
def arith_token(line: bytes) -> bool:
    """``incr`` replies: a decimal or ``NOT_FOUND``."""
    return line == b"NOT_FOUND" or line.isdigit()

