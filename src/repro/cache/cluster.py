"""The cache tier: N servers under a fixed provisioning order + transitions.

Glue between :class:`~repro.cache.server.CacheServer` instances, a routing
strategy, and the :class:`~repro.core.transition.TransitionManager`.  The
experiment runner calls :meth:`scale_to` at each slot boundary; web
servers call :meth:`routing_epochs` — the epoch source for the sans-IO
:class:`~repro.core.retrieval.RetrievalEngine` they drive — and
:meth:`server` on every request.

Power-state choreography for a scale-down ``n -> n-k`` (Section IV):

1. digests of all old owners are snapshotted and attached to the transition;
2. servers ``n-k .. n-1`` enter ``DRAINING`` — still answering gets so web
   servers can pull "hot" data out on demand;
3. when the TTL window closes (:meth:`finalize_expired`, scheduled by the
   driver), draining servers power off and lose their contents.

For a scale-up, the incoming servers power on cold immediately; the old
owners' digests cover the drain window so remapped keys are fetched from
their previous owners instead of the database.  A transition with a zero
TTL is abrupt (Table II's Naive and Consistent): no digests, and the
window closes as it opens.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bloom.config import BloomConfig
from repro.cache.server import CacheServer, PowerState
from repro.core.router import Router
from repro.core.transition import RoutingEpochs, Transition, TransitionManager


class CacheCluster:
    """N cache servers, the first ``initial_active`` powered on.

    Args:
        router: the scenario's routing strategy (its ``num_servers`` fixes N).
        capacity_bytes: per-server store capacity.
        initial_active: ``n(0)``; servers beyond it start OFF.
        bloom_config: digest sizing shared by all servers.
    """

    def __init__(
        self,
        router: Router,
        capacity_bytes: Optional[int] = None,
        initial_active: Optional[int] = None,
        bloom_config: Optional[BloomConfig] = None,
    ) -> None:
        self.router = router
        num_servers = router.num_servers
        if initial_active is None:
            initial_active = num_servers
        self.transitions = TransitionManager(initial_active, num_servers)
        self.transitions.on_power_off.append(self._power_off_servers)
        self.servers: List[CacheServer] = [
            CacheServer(
                server_id=i,
                capacity_bytes=capacity_bytes,
                bloom_config=bloom_config,
                initially_on=i < initial_active,
            )
            for i in range(num_servers)
        ]
        self._failed: set = set()

    # ------------------------------------------------------------- access

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def active_count(self) -> int:
        """Committed active count (the new mapping's ``n``)."""
        return self.transitions.active_count

    def server(self, server_id: int) -> CacheServer:
        """Server by provisioning-order index."""
        return self.servers[server_id]

    def routing_epochs(self, now: float) -> RoutingEpochs:
        """What web servers need to route a request at time *now*.

        This is the retrieval engine's epoch source: drivers pass the
        returned :class:`~repro.core.transition.RoutingEpochs` straight to
        :meth:`repro.core.retrieval.RetrievalEngine.retrieve_many`.
        """
        return self.transitions.routing_counts(now)

    def powered_servers(self) -> List[int]:
        """Ids of servers currently drawing active/idle power (ON or DRAINING)."""
        return [s.server_id for s in self.servers if s.state.serves_requests]

    # ------------------------------------------------------------ scaling

    def scale_to(
        self, n_new: int, now: float, ttl: float
    ) -> Optional[Transition]:
        """Begin a transition to *n_new* active servers with a *ttl* drain
        window.

        A smooth one (``ttl > 0``) first snapshots the digests of the
        *ceding* servers — the old-mapping owners the router reports may
        lose keys (:meth:`~repro.core.router.Router.ceding_servers`); for a
        ring router's scale-down that is exactly the draining servers.
        Scale-up powers the incoming servers on cold before routing flips;
        scale-down marks the outgoing servers DRAINING until the TTL
        closes.  An abrupt one (``ttl == 0``) broadcasts nothing and powers
        the outgoing servers off on the spot, losing their hot data: misses
        the remap causes go straight to the database, the Fig. 9 spike.

        Returns the started :class:`Transition`, or ``None`` for a no-op.
        """
        if not self.transitions.check(n_new, now, ttl):
            return None
        n_old = self.transitions.active_count
        digests = {}
        if ttl > 0:
            digests = {
                sid: self.servers[sid].snapshot_digest()
                for sid in self.router.ceding_servers(n_old, n_new)
                if self.servers[sid].state.serves_requests
            }
        for sid in range(n_old, n_new):
            # A crashed machine ignores the power-on; it joins the fleet
            # only after repair_server().
            if sid not in self._failed:
                self.servers[sid].power_on(now)
        for sid in range(n_new, n_old):
            # Crashed servers are already OFF; they have nothing to drain.
            if self.servers[sid].state is PowerState.ON:
                self.servers[sid].begin_drain()
        return self.transitions.begin(n_new, now, ttl, digests)

    def finalize_expired(self, now: float) -> None:
        """Close any drain window whose TTL has passed (drives power-off)."""
        self.transitions.current(now)  # auto-expires and fires callbacks

    def _power_off_servers(self, server_ids: List[int], when: float) -> None:
        for sid in server_ids:
            self.servers[sid].power_off(when)

    # ------------------------------------------------------------ failures

    def fail_server(self, server_id: int, now: float) -> None:
        """Crash *server_id*: immediate power-off, cache contents lost.

        Section III-A's argument for a fixed provisioning order: crashes
        lose the in-cache data regardless of scheme, so the fixed order
        needs no special-casing — routing still targets the server, and
        fault tolerance comes from replication
        (:class:`~repro.core.router.RingRouter` with ``replicas > 1``):
        the retrieval engine moves on to the next owner in the key's read
        plan when a probe finds the server unavailable.
        """
        server = self.servers[server_id]
        if server.state is PowerState.OFF:
            return
        server.power_off(now)
        self._failed.add(server_id)

    def repair_server(self, server_id: int, now: float) -> None:
        """Bring a crashed server back, cold."""
        if server_id in self._failed:
            self._failed.discard(server_id)
            if server_id < self.active_count:
                self.servers[server_id].power_on(now)

    def failed_servers(self) -> frozenset:
        """Ids of currently-crashed servers."""
        return frozenset(self._failed)

    # ------------------------------------------------------------ metrics

    def per_server_requests(self) -> List[int]:
        """Cumulative request counters per server (Fig. 5 load metric)."""
        return [s.stats.requests for s in self.servers]

    def total_hit_ratio(self) -> float:
        """Aggregate cache hit ratio across the tier."""
        gets = sum(s.stats.gets for s in self.servers)
        hits = sum(s.stats.hits for s in self.servers)
        return hits / gets if gets else 0.0
