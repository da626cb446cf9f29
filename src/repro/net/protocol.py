"""Memcached text-protocol framing.

Implements the memcached ASCII commands the web tier sends — ``get``,
``set``, ``add``, ``incr``, ``delete``, ``stats``, ``flush_all`` and
``quit``; any other verb is an unknown command — plus the two reserved
keys of Section V-A3:

* ``get SET_BLOOM_FILTER`` — the server snapshots its counting Bloom filter
  into a frozen bit array and acknowledges;
* ``get BLOOM_FILTER`` — the snapshot is returned "as normal data", so any
  stock memcached client library can fetch the digest (the paper verified
  spymemcached and python-memcached against its modified server).

Requests and responses are parsed/serialized here with no I/O, so the same
framing serves the asyncio server, the client, and protocol unit tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import ProtocolError

CRLF = b"\r\n"

#: Section V-A3 reserved keys.
KEY_SNAPSHOT = "SET_BLOOM_FILTER"
KEY_FETCH_DIGEST = "BLOOM_FILTER"
RESERVED_KEYS = frozenset((KEY_SNAPSHOT, KEY_FETCH_DIGEST))

MAX_KEY_LENGTH = 250  # memcached's limit, in bytes on the wire


@dataclass(slots=True)
class Request:
    """One parsed client command."""

    command: str
    keys: List[str] = field(default_factory=list)
    flags: int = 0
    exptime: int = 0
    num_bytes: int = 0
    noreply: bool = False
    value: bytes = b""
    #: numeric delta (``incr`` only)
    delta: int = 0


#: every character memcached rejects in a key (whitespace + control
#: chars below 33); a compiled character-class regex makes the check one
#: C-level scan that exits at the first offender — key validation sits on
#: both the client's and the server's per-command hot path
_BAD_KEY_CHARS = "".join(
    chr(c) for c in range(0x3001) if c < 33 or chr(c).isspace()
)
_BAD_KEY_SEARCH = re.compile(f"[{re.escape(_BAD_KEY_CHARS)}]").search


def validate_key(key: str) -> None:
    """Reject keys memcached would reject: control chars, spaces, or more
    than 250 *bytes* (``"é" * 200`` is 400 on the wire)."""
    length = len(key) if key.isascii() else len(key.encode("utf-8"))
    if not 0 < length <= MAX_KEY_LENGTH:
        raise ProtocolError(f"bad key length: {length}")
    if _BAD_KEY_SEARCH(key) is not None:
        raise ProtocolError(f"key contains whitespace/control chars: {key!r}")


def validate_keys(keys: Sequence[str]) -> None:
    """:func:`validate_key` for a whole multiget: a pass over the lengths
    (none while the batch is shorter than one key may be) and one scan of
    the joined keys' characters.  A batch that fails or is not ASCII is
    walked key by key: to raise the offender's error, or count its bytes."""
    joined = "".join(keys)
    if (
        (len(joined) > MAX_KEY_LENGTH
         and max(map(len, keys)) > MAX_KEY_LENGTH)
        or "" in keys
        or not joined.isascii()
        or _BAD_KEY_SEARCH(joined) is not None
    ):
        for key in keys:
            validate_key(key)


#: the commands whose line is followed by a data block
STORAGE_COMMANDS = frozenset(("set", "add"))
#: their verbs, lower-cased as they arrive -> the command name
_STORAGE_VERBS = {command.encode(): command for command in STORAGE_COMMANDS}


def parse_command_line(line: bytes) -> Request:
    """Parse one command line (without its data block).

    Raises:
        ProtocolError: malformed command or arguments.
    """
    # ``get`` is the live tier's dominant command (a page is one multi-key
    # ``get`` per server): skip the strip/split/lower dance of the general
    # path below.
    if line.startswith(b"get "):
        try:
            keys = line[4:].rstrip(b"\r\n").decode("utf-8").split(" ")
        except UnicodeDecodeError as exc:
            raise ProtocolError("command line is not valid UTF-8") from exc
        validate_keys(keys)
        return Request(command="get", keys=keys)
    # Storage lines (write-backs, a prewarm) stay bytes but for the key.
    stripped = line.strip(b"\r\n")
    parts = stripped.split(b" ")
    command = _STORAGE_VERBS.get(parts[0].lower())
    if command is not None:
        noreply = parts[-1] == b"noreply"
        if len(parts) - noreply != 5:
            raise ProtocolError(f"{command} requires: key flags exptime bytes")
        raw = parts[1]
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("command line is not valid UTF-8") from exc
        if not 0 < len(raw) <= MAX_KEY_LENGTH or _BAD_KEY_SEARCH(key):
            validate_key(key)  # raises the offender's own error
        try:
            flags, exptime = int(parts[2]), int(parts[3])
            num_bytes = int(parts[4])
        except ValueError as exc:
            text = stripped.decode("utf-8", "replace")
            raise ProtocolError(
                f"non-numeric storage argument in {text!r}"
            ) from exc
        if num_bytes < 0:
            raise ProtocolError(f"negative byte count: {num_bytes}")
        return Request(
            command=command, keys=[key], flags=flags, exptime=exptime,
            num_bytes=num_bytes, noreply=noreply,
        )
    try:
        text = stripped.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("command line is not valid UTF-8") from exc
    if not text:
        raise ProtocolError("empty command line")
    parts = text.split(" ")
    command = parts[0].lower()
    noreply = parts[-1] == "noreply"
    args = parts[:-1] if noreply else parts

    if command == "get":
        if len(parts) < 2:
            raise ProtocolError("get requires at least one key")
        keys = parts[1:]
        validate_keys(keys)
        return Request(command=command, keys=keys)

    if command == "incr":
        if len(args) != 3:
            raise ProtocolError("incr requires: key delta")
        validate_key(args[1])
        try:
            delta = int(args[2])
        except ValueError as exc:
            raise ProtocolError(f"non-numeric delta in {text!r}") from exc
        if delta < 0:
            raise ProtocolError(f"delta must be >= 0, got {delta}")
        return Request(command=command, keys=[args[1]], delta=delta,
                       noreply=noreply)

    if command == "delete":
        if len(args) != 2:
            raise ProtocolError("delete requires exactly one key")
        validate_key(args[1])
        return Request(command=command, keys=[args[1]], noreply=noreply)

    if command in ("stats", "quit", "flush_all"):
        if len(parts) > 1:
            raise ProtocolError(f"{command} takes no arguments")
        return Request(command=command)

    raise ProtocolError(f"unknown command {command!r}")


def value_response(key: str, flags: int, data: bytes) -> bytes:
    """One ``VALUE`` block of a get response."""
    return b"VALUE %s %d %d\r\n%s\r\n" % (
        key.encode("utf-8"), flags, len(data), data,
    )


#: The fixed reply lines.
END = b"END\r\n"
STORED = b"STORED\r\n"
NOT_STORED = b"NOT_STORED\r\n"
DELETED = b"DELETED\r\n"
NOT_FOUND = b"NOT_FOUND\r\n"


def number_response(value: int) -> bytes:
    """``incr`` reply: the new value as plain decimal."""
    return str(value).encode("utf-8") + CRLF


def error_response(message: str) -> bytes:
    return f"SERVER_ERROR {message}".encode("utf-8") + CRLF


#: The shed reply: the server refused the command because its in-flight
#: limit was exceeded.  A *well-formed* error line in the command's reply
#: slot — the stream stays in sync, later pipelined commands may still
#: succeed.  Clients classify it as never-retryable (see
#: :class:`~repro.errors.ServerBusyError`).
BUSY_PREFIX = b"SERVER_ERROR busy"


def busy_response(detail: str = "overloaded") -> bytes:
    """``SERVER_ERROR busy <detail>`` — the backpressure shed reply."""
    return BUSY_PREFIX + f" {detail}".encode("utf-8") + CRLF


def client_error_response(message: str) -> bytes:
    return f"CLIENT_ERROR {message}".encode("utf-8") + CRLF


def stats_response(stats: Dict[str, object]) -> bytes:
    """A ``stats`` reply: one ``STAT name value`` line per entry, then END."""
    lines = [f"STAT {name} {value}".encode("utf-8") for name, value in stats.items()]
    return CRLF.join(lines) + CRLF + END if lines else END
