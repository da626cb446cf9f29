"""Pipelined asyncio memcached client (the web server's view of one node).

Sends the text-protocol verbs :mod:`repro.net.server` serves — ``get``,
``set``, ``add``, ``incr``, ``delete``, ``stats``, ``flush_all``, ``quit``,
which real memcached serves alike: nothing here reads flags, so a ``get``
reply is framed straight into ``{key: value}``.  Adds the two digest calls of Section V-A3 as
first-class methods: :meth:`snapshot_digest` and :meth:`fetch_digest`,
which a transition coordinator uses to broadcast digests to web servers.

**Transport.**  One TCP connection carries many in-flight commands: each
command appends its reply shape to the incremental
:class:`~repro.net.parser.ReplyParser` and a future to a FIFO; writes from
the same event-loop tick are coalesced into one ``send`` and the reply
stream is matched strictly in order as chunks arrive (``data_received`` →
``feed``), so a burst of *k* gets costs ~one round trip instead of *k*.
A read's fill (:meth:`fill`) is a ``noreply`` burst in that write: it
expects no reply and nothing awaits it.  ``TCP_NODELAY`` is set.

**Fault behaviour.**  A memcached text-protocol exchange has no framing
beyond the reply itself, so *any* mid-reply failure — timeout, reset, EOF,
or an unparseable line — leaves the stream position unknown.  The client
therefore *poisons* the connection on every such failure: the transport
is aborted, :attr:`broken` is set, **every queued future fails** with
:class:`~repro.errors.TransportError` — the transient class retry policies
act on — and the next call reconnects instead of resuming the dead
stream.  The one command whose reply was actually malformed gets
:class:`~repro.errors.ProtocolError`; complete ``SERVER_ERROR``-family
lines raise :class:`ProtocolError` *without* poisoning (the stream is
still framed).  An optional per-operation ``timeout`` bounds every
exchange — and :meth:`close` — so a blackholed server can hang neither a
request nor a shutdown.

**One timer per connection.**  The timeout is a deadline stamped on each
command when it is issued (a pipelined burst is one reply and has one),
kept in a queue parallel to the reply futures, and enforced by a single
``loop.call_at`` handle per connection that re-arms itself for the head
of the queue and lapses when the connection is idle, so a healthy
command costs no timer, no task and no wrapper.  On expiry the head
command gets the "did not answer within" :class:`TransportError`
(``__cause__`` is ``asyncio.TimeoutError``) and the rest of the queue is
poisoned as above.  A *cancelled* caller cancels its reply future, not
the stream: the late reply is consumed in order and dropped.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.bloom.bloom import BloomFilter
from repro.errors import ProtocolError, TransportError
from repro.net import protocol as proto
from repro.net.parser import (
    CountReply, Desync, ErrorLine, LineReply, ReplyParser, ReplyShape,
    StatsReply, ValuesReply, arith_token,
)

#: close() must never hang on a blackholed peer even with timeout=None
CLOSE_TIMEOUT = 5.0


def _storage_burst(verb: bytes, pairs, tail=b"", flags=0, exptime=0) -> bytes:
    """One *verb* storage command per ``(key, value)`` of *pairs*."""
    proto.validate_keys([key for key, _ in pairs])
    line = b"%s %%s %d %d %%d%s\r\n%%s\r\n" % (verb, flags, exptime, tail)
    return b"".join([line % (key.encode("utf-8"), len(value), value)
                     for key, value in pairs])


class _ClientProtocol(asyncio.Protocol):
    """The transport half of one pipelined connection.

    Owns the reply parser, the FIFO of pending futures, the per-tick
    write coalescing buffer, and the connection's one reply-deadline
    timer; delegates fault classification to the owning
    :class:`MemcachedClient`.
    """

    def __init__(self, client: "MemcachedClient") -> None:
        self.client = client
        self.parser = ReplyParser()
        self.pending: Deque[asyncio.Future] = deque()
        #: loop time each queued reply is due by, parallel to ``pending``
        #: (stays empty when the client has no ``timeout``)
        self.due: Deque[float] = deque()
        self.transport: Optional[asyncio.Transport] = None
        self._loop = asyncio.get_running_loop()
        self.closed = self._loop.create_future()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._out = bytearray()
        self._flush_scheduled = False

    # --------------------------------------------------------- transport

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.client.nodelay:
            sock = transport.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                except OSError:  # pragma: no cover - non-TCP transports
                    pass

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.closed.done():
            self.closed.set_result(None)
        self.client._on_connection_lost(self, exc)

    def data_received(self, data: bytes) -> None:
        try:
            results = self.parser.feed(data)
        except Desync as exc:
            # Replies completed before the fault are unambiguous:
            # deliver them, then poison what remains.
            self._deliver(exc.results)
            self.client._on_desync(self, str(exc))
            return
        self._deliver(results)

    def _deliver(self, results) -> None:
        for result in results:
            if not self.pending:  # pragma: no cover - parser guards this
                self.client._on_desync(self, "reply with no pending command")
                return
            future = self.pending.popleft()
            if self.due:
                self.due.popleft()
            if not future.done():  # a cancelled caller's late reply
                future.set_result(result)

    def eof_received(self) -> bool:
        return False  # let connection_lost run and fail the queue

    # ------------------------------------------------------------ writes

    def issue(self, shape: Optional[ReplyShape], payload: bytes,
              future: Optional[asyncio.Future] = None) -> None:
        """Queue *payload* (one command, or a pipelined burst framed as
        one reply) for the coalesced write; *future* gets the reply, and
        a ``noreply`` burst (no *shape*) expects none."""
        if self.transport is None or self.transport.is_closing():
            raise TransportError("connection is closed")
        if shape is not None:
            self.parser.expect(shape)
            self.pending.append(future)
            timeout = self.client.timeout
            if timeout is not None:
                # One deadline for the reply, counted from now; the timer
                # is armed only when none is (it re-arms itself).
                due = self._loop.time() + timeout
                self.due.append(due)
                if self._timer is None:
                    self._timer = self._loop.call_at(due, self._on_due)
        self._out += payload
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self.flush)

    def send_raw(self, payload: bytes) -> None:
        """Fire-and-forget bytes (the ``quit`` farewell)."""
        self._out += payload
        self.flush()

    def flush(self) -> None:
        """Push every write coalesced this tick in one ``send``."""
        self._flush_scheduled = False
        if self._out and self.transport is not None \
                and not self.transport.is_closing():
            self.transport.write(bytes(self._out))
        self._out.clear()

    # ------------------------------------------------------------- faults

    def _on_due(self) -> None:
        """The connection's one timer: fires at what was the head
        command's due time when it was armed.  That command has usually
        been answered since, so follow the queue — disarm when it is
        empty, re-arm for the current head, or report the expiry."""
        self._timer = None
        if not self.due:
            return
        if self.due[0] > self._loop.time():
            self._timer = self._loop.call_at(self.due[0], self._on_due)
        else:
            self.client._on_reply_timeout(self)

    def fail_pending(self, error_factory) -> None:
        """Fail every queued future (poison path); FIFO order.  The
        connection is dead after this, so its timer goes too."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.due.clear()
        while self.pending:
            future = self.pending.popleft()
            if not future.done():
                future.set_exception(error_factory())

    def abort(self) -> None:
        if self.transport is not None:
            try:
                self.transport.abort()
            except Exception:  # pragma: no cover - transport already dead
                pass


class MemcachedClient:
    """One TCP connection to a memcached-protocol server.

    Use as an async context manager or call :meth:`connect` / :meth:`close`.
    The connection is safe for concurrent use from many tasks: commands
    are pipelined and replies matched in FIFO order.
    :class:`~repro.net.pool.ConnectionPool` multiplexes several such
    connections per server.

    Args:
        host/port: the server endpoint.
        timeout: per-operation time limit in seconds: each command's
            reply is due that long after the command is *issued*, one
            deadline per pipelined burst (``None``: wait forever — but
            :meth:`close` is always bounded).  A timeout poisons the
            connection: the stream position is unknown past it.
        nodelay: set ``TCP_NODELAY`` on the socket (default True).

    There is one way to dial: a call (or :meth:`connect`) with no live
    stream dials one, and concurrent callers share that dial.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = None,
                 nodelay: bool = True) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.nodelay = nodelay
        #: the live stream; ``None`` while broken, closed or never opened
        self._protocol: Optional[_ClientProtocol] = None
        #: True after a mid-stream failure until the next reconnect
        self.broken = False
        self._ever_connected = False
        self._dial: Optional[asyncio.Task] = None  # the dial in flight
        #: fresh connections dialled after a poisoned one (diagnostics)
        self.reconnects = 0

    async def connect(self) -> "MemcachedClient":
        """Make sure there is a live stream: return at once if there is
        one, else dial (joining a dial already in flight)."""
        if self._protocol is None:
            await self._dialled()
        return self

    async def _dialled(self) -> _ClientProtocol:
        """The stream of the one dial in flight, started if there is none:
        concurrent callers share it, so a broken connection is replaced
        once.  A cancelled caller leaves the dial running for the rest."""
        dial = self._dial
        if dial is None:
            dial = self._dial = asyncio.ensure_future(self._open())
        try:
            return await asyncio.shield(dial)
        except asyncio.CancelledError:
            if not dial.cancelled() or asyncio.current_task().cancelling():
                raise  # the caller was cancelled, not (only) the dial
            raise TransportError(
                f"dial to {self.host}:{self.port} abandoned by close()"
            ) from None

    async def _open(self) -> _ClientProtocol:
        """One dial, run as the task :meth:`_dialled` shares.  The timeout
        is this task's own ``wait_for``: it cancels the dial, not a page
        running several commands (``net/round.py``)."""
        loop = asyncio.get_running_loop()
        redial = self._ever_connected
        try:
            _, protocol = await asyncio.wait_for(loop.create_connection(
                lambda: _ClientProtocol(self), self.host, self.port
            ), self.timeout)
        except asyncio.TimeoutError as error:
            raise TransportError(
                f"connect to {self.host}:{self.port} timed out "
                f"after {self.timeout}s"
            ) from error
        finally:
            if self._dial is asyncio.current_task():
                self._dial = None
        self._protocol = protocol
        self.broken = False
        self._ever_connected = True
        self.reconnects += redial
        return protocol

    async def close(self) -> None:
        """Say ``quit`` and close; never hangs — bounded by ``timeout``
        (or a default) and aborted on expiry, so a blackholed server
        cannot wedge shutdown.  A dial in flight is cancelled first."""
        dial, self._dial = self._dial, None
        if dial is not None:
            dial.cancel()
            await asyncio.wait((dial,))
        protocol = self._protocol
        self._protocol = None
        self.broken = False
        if protocol is None:
            return
        try:
            bound = self.timeout if self.timeout is not None else CLOSE_TIMEOUT
            try:
                protocol.send_raw(b"quit\r\n")
                if protocol.transport is not None:
                    protocol.transport.close()
                await asyncio.wait_for(asyncio.shield(protocol.closed), bound)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                protocol.abort()
        finally:
            protocol.fail_pending(
                lambda: TransportError("connection closed while in flight")
            )

    async def __aenter__(self) -> "MemcachedClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------ plumbing

    def _poison(self) -> None:
        """Mark the stream unusable and drop the transport on the floor.

        No ``quit`` handshake: the stream position is unknown, so the only
        safe move is an abort.  **Every queued future fails** with
        :class:`TransportError` — with pipelining there may be many — and
        the next call reconnects.
        """
        self.broken = True
        protocol = self._protocol
        self._protocol = None
        if protocol is not None:
            protocol.fail_pending(
                lambda: TransportError(
                    f"{self.host}:{self.port}: connection poisoned with "
                    "the command still in flight"
                )
            )
            protocol.abort()

    def _on_desync(self, protocol: _ClientProtocol, message: str) -> None:
        """Parser desync: the head command gets the protocol error, every
        later queued command a transient transport error, and the
        connection is poisoned — nothing is ever mispaired."""
        self._fail_head(protocol, ProtocolError(message))

    def _on_reply_timeout(self, protocol: _ClientProtocol) -> None:
        """The head command's reply is overdue: it gets the timeout (a
        transient error *caused by* ``asyncio.TimeoutError``); the stream
        position is unknown once a reply is abandoned, so the rest is
        poisoned."""
        error = TransportError(
            f"{self.host}:{self.port} did not answer within {self.timeout}s"
        )
        error.__cause__ = asyncio.TimeoutError()
        self._fail_head(protocol, error)

    def _fail_head(
        self, protocol: _ClientProtocol, error: Exception
    ) -> None:
        if protocol is not self._protocol:
            return  # superseded (poisoned or closed) — already handled
        if protocol.pending:
            head = protocol.pending.popleft()
            if not head.done():
                head.set_exception(error)
        self._poison()

    def _on_connection_lost(
        self, protocol: _ClientProtocol, exc: Optional[Exception]
    ) -> None:
        """EOF/reset from the peer: fail the whole queue transiently."""
        if protocol is not self._protocol:
            return  # superseded (poisoned or replaced) — already handled
        self._protocol = None
        self.broken = True
        if exc is not None:
            message = f"read from {self.host}:{self.port} failed: {exc}"
        else:
            message = "connection closed by server"
        protocol.fail_pending(lambda: TransportError(message))

    async def _exchange(self, shape: ReplyShape, payload: bytes):
        """Issue one command (or one burst) and await its reply, dialling
        first when there is no live stream.  The per-op timeout is the
        connection's timer; a cancelled caller cancels its reply future,
        whose late reply is popped in order and dropped."""
        protocol = self._protocol
        if protocol is None:
            protocol = await self._dialled()
        future = protocol._loop.create_future()
        try:
            protocol.issue(shape, payload, future)
        except TransportError:
            # Lost the race with a concurrent poison/close: transient.
            self._poison()
            raise
        result = await future
        if isinstance(result, ErrorLine):
            # A complete error reply: the stream stays in sync.
            result.raise_()
        return result

    # ------------------------------------------------------------- basics

    async def get(self, key: str) -> Optional[bytes]:
        """Value for *key*, or ``None`` on miss."""
        proto.validate_key(key)
        values = await self._exchange(
            ValuesReply(), f"get {key}\r\n".encode("utf-8")
        )
        return values.get(key)

    async def set(
        self, key: str, value: bytes, flags: int = 0, exptime: int = 0
    ) -> bool:
        """Store *key*; True on STORED."""
        return await self.set_multi(((key, value),), flags, exptime) == 1

    async def get_multi(self, keys) -> Dict[str, bytes]:
        """Batched get: one round trip for many keys; returns only the hits.

        The paper's web servers batch per-request lookups the same way
        (spymemcached pipelines multigets); one command line, one END.
        """
        key_list = list(keys)
        if not key_list:
            return {}
        proto.validate_keys(key_list)
        return await self._exchange(
            ValuesReply(),
            ("get " + " ".join(key_list) + "\r\n").encode("utf-8"),
        )

    async def get_many(self, keys) -> List[Optional[bytes]]:
        """Pipelined single-key gets: one command per key, all coalesced
        into one write, their replies framed as one (a *count*
        :class:`ValuesReply`, one future); returns one value (or ``None``
        on miss) per key, in key order.  An error line raises once every
        reply of the burst has arrived.

        Unlike :meth:`get_multi` this keeps the per-key command shape — a
        page of concurrent per-key callers' burst — without a task per
        key; the net throughput bench fetches its pages with it.
        """
        key_list = list(keys)
        if not key_list:
            return []
        proto.validate_keys(key_list)
        payload = "".join(f"get {key}\r\n" for key in key_list).encode(
            "utf-8"
        )
        values = await self._exchange(ValuesReply(len(key_list)), payload)
        return [values.get(key) for key in key_list]

    async def set_multi(self, items, flags: int = 0, exptime: int = 0) -> int:
        """Pipelined ``set`` commands (a ``put``'s write): one coalesced
        write whose replies are framed as one (a :class:`CountReply`, one
        future); returns how many were STORED.  An error line raises once
        every reply of the burst has arrived."""
        pairs = list(items.items() if isinstance(items, dict) else items)
        if not pairs:
            return 0
        payload = _storage_burst(b"set", pairs, b"", flags, exptime)
        return await self._exchange(CountReply(len(pairs)), payload)

    def fill(self, items, then: Optional[Callable[[], None]] = None) -> None:
        """A read's fill, issued and never awaited: ``add`` every ``(key,
        value)`` of *items* in this tick's write, ``noreply`` unless
        *then* is given — then the burst asks for replies and ``then()``
        runs once they landed or the stream failed.  Never dials: raises
        :class:`TransportError` with no live stream."""
        protocol = self._protocol
        if protocol is None:
            raise TransportError(f"no live stream to {self.host}:{self.port}")
        pairs = list(items)
        if then is None:
            burst = _storage_burst(b"add", pairs, b" noreply")
            return protocol.issue(None, burst)
        reply = protocol._loop.create_future()
        # Nobody awaits the reply: take its error here, then run ``then``.
        reply.add_done_callback(lambda r: r.cancelled() or r.exception())
        reply.add_done_callback(lambda r: then())
        burst = _storage_burst(b"add", pairs)
        protocol.issue(CountReply(len(pairs)), burst, reply)

    async def incr(self, key: str, delta: int = 1) -> Optional[int]:
        """Increment a decimal value; returns the new value or ``None``."""
        proto.validate_key(key)
        reply = await self._exchange(
            LineReply(arith_token), f"incr {key} {delta}\r\n".encode("utf-8")
        )
        if reply == b"NOT_FOUND":
            return None
        return int(reply)

    async def delete(self, key: str) -> bool:
        """Delete *key*; True if it existed."""
        proto.validate_key(key)
        return await self._exchange(
            CountReply(1, b"DELETED", b"NOT_FOUND"),
            f"delete {key}\r\n".encode("utf-8"),
        ) == 1

    async def stats(self) -> Dict[str, str]:
        """The server's ``stats`` map."""
        return await self._exchange(StatsReply(), b"stats\r\n")

    async def flush_all(self) -> None:
        """Drop everything on the server."""
        await self._exchange(CountReply(1, b"OK", b"OK"), b"flush_all\r\n")

    # ------------------------------------------------------- digest calls

    async def snapshot_digest(self) -> None:
        """Ask the server to freeze its digest (``get SET_BLOOM_FILTER``)."""
        ack = await self.get(proto.KEY_SNAPSHOT)
        if ack is None:
            raise ProtocolError("server did not acknowledge digest snapshot")

    async def fetch_digest(self, num_bits: int, num_hashes: int = 4) -> BloomFilter:
        """Retrieve the frozen digest (``get BLOOM_FILTER``) as a Bloom filter.

        The caller supplies the filter geometry — exactly as the paper's web
        servers know the cluster-wide Bloom configuration out of band.
        """
        payload = await self.get(proto.KEY_FETCH_DIGEST)
        if payload is None:
            raise ProtocolError("no digest snapshot on server; call snapshot_digest")
        return BloomFilter.from_bytes(payload, num_bits, num_hashes)
