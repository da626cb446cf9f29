"""A small per-server connection pool for the pipelined client.

The paper's web tier pools its spymemcached connections with Apache
Commons Pool (Section V); this is the asyncio analogue.  One
:class:`ConnectionPool` fronts one cache server with up to ``size``
pipelined :class:`~repro.net.client.MemcachedClient` connections:

* **lazy dial** — connections are created on first demand (and after an
  ejection), never eagerly, so a pool pointed at a dead server costs
  nothing until someone actually calls it;
* **shared leases** — pipelined connections are safe for concurrent
  use, so :meth:`acquire` hands out the *least-loaded* live connection
  (dialling a new one while under ``size``) instead of blocking;
  concurrent fetches to one server therefore spread across sockets and
  pipeline within each, and nothing ever queues on a pool lock;
* **broken-connection ejection** — a connection poisoned mid-lease
  (timeout, reset, desync) is dropped from the pool when its last lease
  is released; the next :meth:`acquire` dials a replacement.  Ejections
  count toward :attr:`reconnects`, so it shows connection churn whether
  the client redialled itself or the pool replaced it.

The pool never retries or degrades — that stays with
:class:`~repro.net.transport.CacheTransport`, whose
:mod:`repro.resilience` policies wrap every pooled RPC.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.net.client import MemcachedClient
from repro.resilience.deadline import Deadline

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
        self._dialing = 0  # dials in flight (they hold a size slot)
        #: connections dialled over the pool's lifetime
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
    def live(self) -> int:
        """Connections currently in the pool."""
        return len(self._conns)

    @property
    def leases(self) -> int:
        """Live leases across every connection."""
        return sum(self._leases.values())

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
        failure (e.g. against a breaker); the pool stays usable — later
        acquires keep trying lazily.
        """
        if self._conns:
            return self._conns[0]
        return await self._dial()

    async def close(self) -> None:
        """Close every pooled connection (bounded by the client timeout)."""
        self._closed = True
        conns, self._conns = self._conns, []
        self._leases.clear()
        for client in conns:
            self._retired_reconnects += client.reconnects
            await client.close()

    # ------------------------------------------------------ acquire/release

    async def _dial(self) -> MemcachedClient:
        # Always pipelined with TCP_NODELAY (the client's defaults): shared
        # leases are only safe on a connection that multiplexes.
        client = MemcachedClient(self.host, self.port, timeout=self.timeout)
        # The in-flight dial holds a size slot: concurrent acquires must
        # not each pass the bound check and over-dial.
        self._dialing += 1
        try:
            await client.connect()
        finally:
            self._dialing -= 1
        self.dials += 1
        self._conns.append(client)
        self._leases[id(client)] = 0
        return client

    def _eject(self, client: MemcachedClient) -> None:
        self._conns.remove(client)
        self._leases.pop(id(client), None)
        self._retired_reconnects += client.reconnects
        self.ejections += 1
        client._poison()  # abort outright: the stream is already dead

    async def acquire(
        self, deadline: Optional[Deadline] = None
    ) -> MemcachedClient:
        """A connection to run commands on; call :meth:`release` after.

        Never blocks: below ``size`` a fresh connection is dialled when
        every live one is busy; at the bound the least-loaded live
        connection is shared (it pipelines).  Dial errors propagate —
        classification is the caller's retry policy's job.

        An already-expired *deadline* raises
        :class:`~repro.errors.DeadlineExceeded` before any dial.
        """
        if self._closed:
            raise ConfigurationError("pool is closed")
        if deadline is not None:
            # A dead budget must not burn a connect + retry cycle.
            deadline.check("connection acquire")
        # One pass, no lists: the first idle healthy connection is the
        # answer; idle broken ones hold no leases, so they are ejected
        # now and the dial below replaces them.
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
            if len(self._conns) + self._dialing < self.size:
                chosen = await self._dial()
                if self._closed:  # closed while dialling
                    await chosen.close()
                    raise ConfigurationError("pool is closed")
            elif not self._conns:
                # Everything usable is still being dialled: wait a tick and
                # share whatever lands instead of over-dialling past size.
                while self._dialing and not self._conns:
                    await asyncio.sleep(0)
                return await self.acquire(deadline)
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
        total = self.leases
        if total > self.leases_peak:
            self.leases_peak = total
        return chosen

    def release(self, client: MemcachedClient) -> None:
        """Return a leased connection; broken ones are ejected once the
        last lease is gone."""
        key = id(client)
        if key not in self._leases:
            return  # ejected mid-lease by close(); nothing to do
        self._leases[key] = max(0, self._leases[key] - 1)
        if client.broken and self._leases[key] == 0:
            self._eject(client)
