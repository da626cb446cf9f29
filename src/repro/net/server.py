"""Asyncio memcached server with a built-in counting-Bloom-filter digest.

The runnable analogue of the paper's modified memcached (Section V-A3): a
TCP server whose store keeps a counting Bloom filter consistent with its
items as it links and unlinks them, with the reserved keys
``SET_BLOOM_FILTER`` (snapshot) and ``BLOOM_FILTER`` (fetch snapshot as
normal data).  It speaks the memcached text-protocol verbs the web tier
sends — ``get``, ``set``, ``add``, ``incr``, ``delete``, ``stats``,
``flush_all`` and ``quit`` — and answers any other verb ``CLIENT_ERROR
unknown command``.  The store and digest are the *same* classes the
simulation uses — only time comes from the wall clock here.
Each connection is an :class:`asyncio.Protocol` (:class:`ServerConnection`):
a request costs one loop iteration — no task, future or ``drain`` await.

Example::

    server = MemcachedServer(capacity_bytes=64 * 1024 * 1024)
    await server.start("127.0.0.1", 0)   # port 0 -> ephemeral
    ...
    await server.stop()
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Dict, List, Optional, Set

from repro.bloom.config import BloomConfig, optimal_config
from repro.cache.item import CacheItem
from repro.cache.store import KeyValueStore, default_digest_config
from repro.bloom.counting import CountingBloomFilter
from repro.errors import CapacityError, ConfigurationError
from repro.net import protocol as proto
from repro.net.parser import BadCommand, CommandParser


class MemcachedServer:
    """A single cache node reachable over TCP.

    Args:
        capacity_bytes: store capacity (LRU beyond it), ``None`` = unbounded.
        bloom_config: digest sizing; defaults to the Section IV-B optimum
            for the capacity-implied key count.
        clock: time source (injectable for tests; defaults to wall clock).
        max_inflight: global cap on commands accepted but not yet
            replied-and-drained, across all connections (``None`` =
            unbounded, the pre-armor behaviour).  Commands over the cap
            are *shed*: answered ``SERVER_ERROR busy`` without being
            dispatched, so an overload burst costs one error line each
            instead of queue growth.  A ``noreply`` command meets the
            cap but holds no slot: it has no reply to drain.

    Accepted sockets get ``TCP_NODELAY`` (reply batches must not sit
    behind Nagle while the client pipelines) and asyncio's default write
    limits.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        bloom_config: Optional[BloomConfig] = None,
        clock=time.monotonic,
        max_inflight: Optional[int] = None,
    ) -> None:
        self._clock = clock
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        #: commands accepted but not yet replied-and-drained (all conns)
        self.inflight = 0
        #: commands refused with ``SERVER_ERROR busy``
        self.shed_commands = 0
        if bloom_config is None:
            bloom_config = default_digest_config(capacity_bytes)
        self.digest: CountingBloomFilter = bloom_config.build()
        self.store = KeyValueStore(
            capacity_bytes, self.digest, default_item_size=0
        )
        self._snapshot: Optional[bytes] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: connections accepted since construction / those still open
        self.connections = 0
        self._open: Set[ServerConnection] = set()

    # ------------------------------------------------------------- digest

    def take_snapshot(self) -> bytes:
        """Freeze the digest into a bit array (``get SET_BLOOM_FILTER``)."""
        self._snapshot = self.digest.snapshot().to_bytes()
        return self._snapshot

    # ------------------------------------------------------------ lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Begin serving; returns the bound port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: ServerConnection(self), host, port
        )
        return self.port

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Power off: close the listener and drop every open connection
        (unsent replies die with them, as on a node that lost power)."""
        if self._server is not None:
            listener, self._server = self._server, None
            listener.close()
            for connection in list(self._open):
                connection.transport.abort()
            await listener.wait_closed()
            while self._open:  # until every connection_lost has run
                await asyncio.sleep(0)

    # ------------------------------------------------------------ commands

    def _dispatch(self, request: proto.Request) -> bytes:
        """Answer one command: the verbs the web tier sends (``quit``
        never reaches here, and the parser rejects every other verb)."""
        command = request.command
        if command == "get":
            return self._do_get(request)
        if command == "set":  # the write path: straight to the store
            return self._set(
                request.keys[0], request.value, self._clock(),
                request.exptime or None, request.flags,
            )
        if command == "add":
            return self._do_add(request)
        if command == "incr":
            return self._do_incr(request)
        if command == "delete":
            return self._do_delete(request)
        if command == "stats":
            return proto.stats_response(self._stats_dict())
        # flush_all, the one verb left
        self.store.flush()
        return b"OK" + proto.CRLF

    def _do_get(self, request: proto.Request) -> bytes:
        keys = request.keys
        reserved = proto.RESERVED_KEYS
        # One store call for the lookups; the reserved keys are no lookups.
        hits = self.store.get_many(
            keys if reserved.isdisjoint(keys)
            else [key for key in keys if key not in reserved],
            self._clock(),
        )
        chunks = []
        for key in keys:
            item = hits.get(key)
            if item is not None:
                # A hit's reply block was built when it was set.
                chunks.append(item.value)
            elif key == proto.KEY_SNAPSHOT:
                # Snapshot the digest, acknowledge with a 1-byte value so
                # stock clients see a normal hit.
                self.take_snapshot()
                chunks.append(proto.value_response(key, 0, b"1"))
            elif key == proto.KEY_FETCH_DIGEST and self._snapshot is not None:
                chunks.append(proto.value_response(key, 0, self._snapshot))
        chunks.append(proto.END)
        return b"".join(chunks)

    def _do_add(self, request: proto.Request) -> bytes:
        """``add`` (a read's fill): ``NOT_STORED`` over a live item, else
        ``_set`` (a reserved key skips to ``_set``'s ``CLIENT_ERROR``)."""
        key = request.keys[0]
        now = self._clock()
        if key not in proto.RESERVED_KEYS:
            current = self.store.peek(key)
            if current is not None and not current.expired(now):
                return proto.NOT_STORED
        return self._set(
            key, request.value, now, request.exptime or None, request.flags
        )

    def _set(self, key, value, now, ttl, flags) -> bytes:
        """Store *value*: ``STORED``, or ``CLIENT_ERROR`` (a reserved key) /
        ``SERVER_ERROR`` (too big).  *ttl* <= 0: expired.

        The item holds its whole ``get`` reply block, ``VALUE`` header and
        CRLF included (as memcached keeps its suffix with the item), so a
        hit is one append; its ``size`` is the payload's, which is what
        capacity, eviction and the ``bytes`` stat count."""
        if key in proto.RESERVED_KEYS:
            return proto.client_error_response(f"{key} is reserved")
        try:
            self.store.set(
                key, proto.value_response(key, flags, value), now,
                len(value), ttl, flags,
            )
        except CapacityError as exc:
            return proto.error_response(str(exc))
        return proto.STORED

    def _do_incr(self, request: proto.Request) -> bytes:
        key = request.keys[0]
        now = self._clock()
        item = self.store.get_many((key,), now).get(key)
        if item is None:
            return proto.NOT_FOUND
        try:
            number = int(_payload(item).decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            return proto.client_error_response(
                "cannot increment or decrement non-numeric value"
            )
        number = (number + request.delta) % (1 << 64)
        expires = item.expires_at  # in the future: the item was a hit
        ttl = None if expires is None else expires - now
        reply = self._set(key, b"%d" % number, now, ttl, item.flags)
        if reply is proto.STORED:
            return proto.number_response(number)
        return reply

    def _do_delete(self, request: proto.Request) -> bytes:
        if self.store.delete(request.keys[0], self._clock()):
            return proto.DELETED
        return proto.NOT_FOUND

    def _stats_dict(self) -> Dict[str, object]:
        stats = self.store.stats
        return {
            "cmd_get": stats.gets,
            "get_hits": stats.hits,
            "get_misses": stats.misses,
            "cmd_set": stats.sets,
            "evictions": stats.evictions,
            "expired_unfetched": stats.expirations,
            "curr_items": len(self.store),
            "bytes": self.store.used_bytes,
            "digest_keys": self.digest.count,
            "digest_overflows": self.digest.overflow_events,
            "digest_bytes": self.digest.size_bytes(),
            "curr_connections": len(self._open),
            "total_connections": self.connections,
            "inflight_commands": self.inflight,
            "shed_commands": self.shed_commands,
        }


def _payload(item: CacheItem) -> bytes:
    """The data of an item :meth:`MemcachedServer._set` stored: its reply
    block less the ``VALUE`` header and the closing CRLF."""
    return item.value[-2 - item.size:-2]


#: A connection's receive buffer, reused by every read (a plain ``Protocol``
#: gets a fresh 256 KiB ``bytes`` per read, which glibc may mmap and unmap:
#: a page fault per request)
READ_SIZE = 64 * 1024


class ServerConnection(asyncio.BufferedProtocol):
    """One client connection: a chunk in, at most one write out.

    A read lands in the connection's one :data:`READ_SIZE` buffer, and
    ``data_received`` frames it with the incremental
    :class:`~repro.net.parser.CommandParser`, sheds or dispatches each
    command and answers the whole pipelined burst with **one**
    ``transport.write`` before it returns.

    Backpressure: each accepted command with a reply counts against the
    server's ``max_inflight`` from dispatch until its chunk's replies have
    drained (a ``noreply`` one is shed over the cap, but holds no slot).
    They normally drain inside the write; when they do not (the
    transport calls :meth:`pause_writing`: buffer over its high-water
    mark) the connection stops reading and keeps its
    answered commands in-flight until :meth:`resume_writing` or
    :meth:`connection_lost` — a client that does not read its replies
    cannot grow the buffer, and the excess offered load is shed with
    ``SERVER_ERROR busy`` instead of queued.
    """

    def __init__(self, server: MemcachedServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.parser = CommandParser()
        self._inbox = memoryview(bytearray(READ_SIZE))
        #: commands answered but still counted in ``server.inflight``
        self.held = 0
        self.write_paused = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        server = self.server
        if server._server is None:  # accepted while stop() was running
            transport.abort()
            return
        self.transport = transport
        server.connections += 1
        server._open.add(self)
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP transports
                pass

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._inbox

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._inbox[:nbytes])

    def data_received(self, data: bytes) -> None:
        server = self.server
        cap = server.max_inflight
        out: List[bytes] = []
        closing = False
        for item in self.parser.feed(data):
            if isinstance(item, BadCommand):
                out.append(proto.client_error_response(item.message))
                if item.fatal:
                    # The stream is desynchronized past a bad data block;
                    # reply and drop the connection, as memcached does.
                    closing = True
                    break
                continue
            if item.command == "quit":
                closing = True
                break
            if cap is not None and server.inflight >= cap:
                # Shed: a well-formed error line in the command's reply
                # slot — the stream stays framed, nothing is dispatched.
                server.shed_commands += 1
                if not item.noreply:
                    out.append(proto.busy_response(f"inflight limit {cap}"))
                continue
            if item.noreply:  # no reply to drain: it holds no slot
                server._dispatch(item)
                continue
            # Counted here as well, so every way out of the connection —
            # a dispatch that raises included — gives the command back.
            server.inflight += 1
            self.held += 1
            out.append(server._dispatch(item))
        if out:
            self.transport.write(b"".join(out))
        if not self.write_paused:
            self._release()
        if closing:
            self.transport.close()

    def _release(self) -> None:
        self.server.inflight -= self.held
        self.held = 0

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._release()
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._open.discard(self)
        self._release()


def main(argv: Optional[list] = None) -> None:  # pragma: no cover - CLI
    """Run one cache node as its own process (``python -m repro.net.server``).

    The net throughput bench uses this to put the server on its own core
    — a co-located server shares the client's event loop and measures
    GIL contention, not the transport.
    """
    import argparse

    parser = argparse.ArgumentParser(description="Run one cache node")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--capacity-mb", type=float, default=None)
    parser.add_argument("--expected-keys", type=int, default=100_000)
    parser.add_argument("--max-inflight", type=int, default=None)
    args = parser.parse_args(argv)

    async def serve() -> None:
        server = MemcachedServer(
            capacity_bytes=(
                int(args.capacity_mb * (1 << 20)) if args.capacity_mb else None
            ),
            bloom_config=optimal_config(args.expected_keys),
            max_inflight=args.max_inflight,
        )
        port = await server.start(args.host, args.port)
        print(f"LISTENING {port}", flush=True)
        await asyncio.Event().wait()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":  # pragma: no cover
    main()
