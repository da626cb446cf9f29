"""Cluster health aggregation: the sensor half of the closed loop.

The paper's provisioning loop (Section VI) reads exactly one signal — the
measured data-retrieval delay — and assumes every active server is alive.
The resilience layer already *knows* more: per-server circuit breakers
track which paths are rejecting work, :class:`~repro.core.retrieval.FetchStats`
counts how often the engine served *around* a fault and how often
admission control shed, and the transition manager knows whether a
drain window is open.  :class:`ClusterHealthMonitor` folds those
scattered signals into one per-slot :class:`HealthSnapshot` the
:class:`~repro.provisioning.controller.DelayFeedbackController` can act on:
emergency scale-up when capacity is already gone, and scale-down vetoes
while the cluster is impaired or a transition's remap misses still decay.

The monitor is substrate-neutral the same way the retrieval engine is: it
reads zero-argument *source* callables and never does I/O, so the
simulator (:meth:`ClusterHealthMonitor.for_simulation`) and the live tier
(:meth:`ClusterHealthMonitor.for_frontend`) feed the identical snapshot
type — which is what makes sim-vs-live health parity testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
)

from repro.core.retrieval import DEGRADED_EVENTS, FetchPath, FetchStats
from repro.errors import ConfigurationError
from repro.resilience import BreakerSnapshot, BreakerState

__all__ = ["HealthSnapshot", "ClusterHealthMonitor"]

#: FetchPath entries that only occur while remapped keys re-register after
#: a routing flip: old-owner pulls and digest false positives.  Their
#: per-window delta is the remap-miss signal the controller's scale-down
#: veto reads.
REMAP_MISS_PATHS = (FetchPath.HIT_OLD, FetchPath.FALSE_POSITIVE_DB)


@dataclass(frozen=True)
class HealthSnapshot:
    """One observation window's cluster-health facts.

    All counters are **deltas over the window** (not cumulative totals),
    so a controller comparing consecutive snapshots sees rates, and an old
    incident cannot keep vetoing scale-downs forever.

    Attributes:
        at: observation time (the window's right edge).
        requests: fetches completed in the window.
        degraded: served-around fault counts per event label
            (see :data:`~repro.core.retrieval.DEGRADED_EVENTS`).
        open_servers: servers whose breaker was OPEN at *at* (a HALF_OPEN
            breaker is probing its way back: not lost capacity).
        failed_servers: servers the substrate reports crashed (simulator)
            — live tiers have no crash oracle, only breakers.
        remap_misses: old-owner pulls + digest false positives in the
            window — nonzero only while a drain window's working set is
            still re-registering.
        in_transition: True while a drain window was open at *at*.
        shed: requests shed by admission control in the window (the
            :attr:`~repro.core.retrieval.FetchPath.SHED` delta) — unlike
            ``degraded`` these were *not served*, so sustained shedding
            is a scale-up signal, not just a veto.
    """

    at: float
    requests: int = 0
    degraded: Mapping[str, int] = field(
        default_factory=lambda: {event: 0 for event in DEGRADED_EVENTS}
    )
    open_servers: FrozenSet[int] = frozenset()
    failed_servers: FrozenSet[int] = frozenset()
    remap_misses: int = 0
    in_transition: bool = False
    shed: int = 0

    @property
    def unhealthy_servers(self) -> FrozenSet[int]:
        """Servers that cannot take load: tripped breaker or crashed."""
        return self.open_servers | self.failed_servers

    @property
    def degraded_events(self) -> int:
        """Total served-around faults in the window."""
        return sum(self.degraded.values())

    @property
    def degraded_rate(self) -> float:
        """Served-around faults per request in the window (0 when idle)."""
        return self.degraded_events / self.requests if self.requests else 0.0

    @property
    def shed_rate(self) -> float:
        """Requests shed per offered request in the window (0 when idle)."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def healthy(self) -> bool:
        """No impairment visible: nothing tripped, crashed, degrading,
        or shedding."""
        return (
            not self.unhealthy_servers
            and self.degraded_events == 0
            and self.shed == 0
        )


class ClusterHealthMonitor:
    """Aggregates resilience signals into per-window snapshots.

    Sources are zero-argument callables returning *cumulative* state; the
    monitor differences consecutive reads itself, so drivers wire the raw
    counters they already have and never maintain deltas:

    * :meth:`watch_stats` — a :class:`FetchStats` supplier (one per web
      server / frontend; several add up);
    * :meth:`watch_breakers` — a supplier of per-server
      :class:`BreakerSnapshot` mappings (live tier);
    * :meth:`watch_failures` — a supplier of crashed-server id sets
      (simulator);
    * :meth:`watch_transition` — a ``now -> bool`` drain-window probe.

    Call :meth:`observe` once per control slot; it returns the new
    :class:`HealthSnapshot`.
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ConfigurationError(
                f"num_servers must be >= 1, got {num_servers}"
            )
        self.num_servers = num_servers
        self._stats_sources: List[Callable[[], FetchStats]] = []
        self._breaker_sources: List[
            Callable[[], Mapping[int, BreakerSnapshot]]
        ] = []
        self._failure_sources: List[Callable[[], Iterable[int]]] = []
        self._transition_probe: Optional[Callable[[float], bool]] = None
        self._last_requests = 0
        self._last_degraded: Dict[str, int] = {}
        self._last_remap = 0
        self._last_shed = 0

    # -------------------------------------------------------------- wiring

    def watch_stats(self, source: Callable[[], FetchStats]) -> None:
        """Add a cumulative :class:`FetchStats` supplier."""
        self._stats_sources.append(source)

    def watch_breakers(
        self, source: Callable[[], Mapping[int, BreakerSnapshot]]
    ) -> None:
        """Add a per-server breaker-snapshot supplier
        (e.g. ``lambda: ResiliencePolicy.health(web.transport.breakers)``)."""
        self._breaker_sources.append(source)

    def watch_failures(self, source: Callable[[], Iterable[int]]) -> None:
        """Add a crashed-server-id supplier (simulator substrate)."""
        self._failure_sources.append(source)

    def watch_transition(self, probe: Callable[[float], bool]) -> None:
        """Set the drain-window probe (``now -> bool``)."""
        self._transition_probe = probe

    # ------------------------------------------------------------ observing

    def observe(self, now: float) -> HealthSnapshot:
        """Take one snapshot: read every source, difference the cumulative
        counters against the previous call, and return."""
        requests_total = 0
        degraded_total: Dict[str, int] = {e: 0 for e in DEGRADED_EVENTS}
        remap_total = 0
        shed_total = 0
        for source in self._stats_sources:
            stats = source()
            requests_total += stats.total
            for event, count in stats.degraded.items():
                degraded_total[event] = degraded_total.get(event, 0) + count
            remap_total += sum(
                stats.counts.get(path, 0) for path in REMAP_MISS_PATHS
            )
            shed_total += stats.counts.get(FetchPath.SHED, 0)
        open_servers = set()
        for source in self._breaker_sources:
            for server_id, snapshot in source().items():
                if snapshot.state is BreakerState.OPEN:
                    open_servers.add(server_id)
        failed = set()
        for source in self._failure_sources:
            failed.update(source())
        snapshot = HealthSnapshot(
            at=now,
            requests=max(0, requests_total - self._last_requests),
            degraded={
                event: max(
                    0, degraded_total[event] - self._last_degraded.get(event, 0)
                )
                for event in degraded_total
            },
            open_servers=frozenset(open_servers),
            failed_servers=frozenset(failed),
            remap_misses=max(0, remap_total - self._last_remap),
            in_transition=(
                self._transition_probe(now)
                if self._transition_probe is not None
                else False
            ),
            shed=max(0, shed_total - self._last_shed),
        )
        self._last_requests = requests_total
        self._last_degraded = degraded_total
        self._last_remap = remap_total
        self._last_shed = shed_total
        return snapshot

    # ----------------------------------------------------------- factories

    @classmethod
    def for_frontend(cls, frontend) -> "ClusterHealthMonitor":
        """A monitor wired to a live
        :class:`~repro.net.webtier.AsyncProteusFrontend`: its breakers (via
        :meth:`~repro.resilience.ResiliencePolicy.health`), engine stats
        and drain-window state."""
        from repro.resilience import ResiliencePolicy

        monitor = cls(len(frontend.endpoints))
        monitor.watch_stats(lambda: frontend.stats)
        monitor.watch_breakers(
            lambda: ResiliencePolicy.health(frontend.transport.breakers)
        )
        monitor.watch_transition(
            lambda now: frontend._manager.in_transition(now)
        )
        return monitor

    @classmethod
    def for_simulation(cls, cluster, webs) -> "ClusterHealthMonitor":
        """A monitor wired to the simulator substrate: a
        :class:`~repro.cache.cluster.CacheCluster` (crash oracle +
        drain-window state) and its web servers' engine stats."""
        monitor = cls(cluster.num_servers)
        for web in webs:
            monitor.watch_stats(lambda web=web: web.stats)
        monitor.watch_failures(cluster.failed_servers)
        monitor.watch_transition(cluster.transitions.in_transition)
        return monitor
