"""A small per-server connection pool for the pipelined client.

The paper's web tier pools its spymemcached connections with Apache
Commons Pool (Section V); this is the asyncio analogue.  One
:class:`ConnectionPool` fronts one cache server with up to ``size``
pipelined :class:`~repro.net.client.MemcachedClient` connections:

* **lazy dial** — connections are created on first demand (and after an
  ejection), never eagerly, and each dials itself on its first exchange
  (concurrent callers share that one dial), so a pool pointed at a dead
  server costs nothing until someone actually calls it;
* **shared leases** — pipelined connections are safe for concurrent
  use, so :meth:`acquire` hands out the *least-loaded* connection
  (adding a new one while under ``size``) and never awaits;
  concurrent fetches to one server therefore spread across sockets and
  pipeline within each, and nothing ever queues on a pool lock;
* **broken-connection ejection** — a connection poisoned mid-lease
  (timeout, reset, desync) is dropped from the pool when its last lease
  is released; the next :meth:`acquire` adds a replacement.  Ejections
  count toward :attr:`reconnects`, so it shows connection churn whether
  the client redialled itself or the pool replaced it.

The pool never retries or degrades — that stays with
:class:`~repro.net.transport.CacheTransport`, whose
:mod:`repro.resilience` policies wrap every pooled RPC.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.net.client import MemcachedClient

__all__ = ["ConnectionPool"]


class ConnectionPool:
    """Up to ``size`` pipelined connections to one memcached endpoint.

    Args:
        host/port: the server endpoint.
        size: maximum live connections (the bound; leases are unbounded
            because pipelined connections multiplex).
        timeout: per-operation timeout handed to every client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 4,
        timeout: Optional[float] = None,
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        self.host = host
        self.port = port
        self.size = size
        self.timeout = timeout
        self._conns: List[MemcachedClient] = []
        self._leases: Dict[int, int] = {}  # id(client) -> live leases
        self._leased = 0  # live leases across every connection
        #: connections opened over the pool's lifetime (each dials itself)
        self.dials = 0
        #: broken connections dropped from the pool
        self.ejections = 0
        #: acquisitions that found no idle connection at the size bound
        #: and had to share a busy one
        self.waited = 0
        #: highest concurrent lease count ever reached (high-water mark)
        self.leases_peak = 0
        self._retired_reconnects = 0
        self._closed = False

    # ------------------------------------------------------------- stats

    @property
    def leases(self) -> int:
        """Live leases across every connection."""
        return self._leased

    @property
    def reconnects(self) -> int:
        """Connection churn: client-level redials plus pool ejections
        (each ejection forces a replacement dial on the next acquire),
        including connections since retired.  Monotonic."""
        live = sum(client.reconnects for client in self._conns)
        return live + self._retired_reconnects + self.ejections

    # ---------------------------------------------------------- lifecycle

    async def prewarm(self) -> MemcachedClient:
        """Dial the first connection eagerly (connect-time health probe).

        Raises whatever the dial raises so the caller can record the
        failure (e.g. against a breaker); the pool stays usable — the
        connection keeps trying lazily on its next exchange.
        """
        client = self._conns[0] if self._conns else self._new_client()
        return await client.connect()

    async def close(self) -> None:
        """Close every pooled connection (bounded by the client timeout;
        a dial in flight is cancelled)."""
        self._closed = True
        conns, self._conns = self._conns, []
        self._leases.clear()
        self._leased = 0
        for client in conns:
            self._retired_reconnects += client.reconnects
            await client.close()

    # ------------------------------------------------------ acquire/release

    def _new_client(self) -> MemcachedClient:
        # Always pipelined with TCP_NODELAY (the client's defaults): shared
        # leases are only safe on a connection that multiplexes.  It holds
        # its size slot from now on, so concurrent acquires cannot
        # over-dial, and it dials itself on its first exchange.
        client = MemcachedClient(self.host, self.port, timeout=self.timeout)
        self.dials += 1
        self._conns.append(client)
        self._leases[id(client)] = 0
        return client

    def _eject(self, client: MemcachedClient) -> None:
        self._conns.remove(client)
        self._leased -= self._leases.pop(id(client), 0)
        self._retired_reconnects += client.reconnects
        self.ejections += 1
        client._poison()  # abort outright: the stream is already dead

    def acquire(self) -> MemcachedClient:
        """A connection to run commands on; call :meth:`release` after.

        Never awaits: below ``size`` a fresh connection is added when
        every one is busy; at the bound the least-loaded one is shared (it
        pipelines).  A new or broken connection dials on its first
        exchange, whose errors reach the caller's retry policy.
        """
        if self._closed:
            raise ConfigurationError("pool is closed")
        # One pass, no lists: the first idle healthy connection is the
        # answer; idle broken ones hold no leases, so they are ejected
        # now and a new connection replaces them.
        chosen: Optional[MemcachedClient] = None
        stale = ()
        for client in self._conns:
            if self._leases[id(client)]:
                continue
            if client.broken:
                stale += (client,)
            elif chosen is None:
                chosen = client
        for client in stale:
            self._eject(client)
        if chosen is None:
            if len(self._conns) < self.size:
                chosen = self._new_client()
            else:
                # Every connection is leased: share the least-loaded healthy
                # one (it pipelines) — or, when all are broken mid-lease, any:
                # the client auto-reconnects on its next exchange.
                healthy = [c for c in self._conns if not c.broken]
                self.waited += 1
                chosen = min(
                    healthy or self._conns, key=lambda c: self._leases[id(c)]
                )
        self._leases[id(chosen)] += 1
        self._leased += 1
        if self._leased > self.leases_peak:
            self.leases_peak = self._leased
        return chosen

    def release(self, client: MemcachedClient) -> None:
        """Return a leased connection; broken ones are ejected once the
        last lease is gone."""
        key = id(client)
        if not self._leases.get(key):
            return  # ejected or closed mid-lease, or a double release
        self._leases[key] -= 1
        self._leased -= 1
        if client.broken and self._leases[key] == 0:
            self._eject(client)
