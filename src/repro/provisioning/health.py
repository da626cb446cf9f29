"""Cluster health aggregation: the sensor half of the closed loop.

The paper's provisioning loop (Section VI) reads exactly one signal — the
measured data-retrieval delay — and assumes every active server is alive.
The resilience layer already *knows* more: the engine's
:class:`~repro.core.retrieval.FetchStats` count how often it served
*around* a fault and how often admission control shed, the substrate
knows which servers cannot take load, and the transition manager knows
whether a drain window is open.  :class:`ClusterHealthMonitor` folds
those signals into one per-slot :class:`HealthSnapshot` the
:class:`~repro.provisioning.controller.DelayFeedbackController` can act on:
emergency scale-up when capacity is already gone, and scale-down vetoes
while the cluster is impaired or a transition's remap misses still decay.

The monitor is substrate-neutral the same way the retrieval engine is: it
is built from the objects it reads and never does I/O, so the simulator
(its crash set) and the live tier (its breakers, through
:func:`open_circuits`) feed the identical snapshot type — which is what
makes sim-vs-live health parity testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Sequence

from repro.core.retrieval import DEGRADED_EVENTS, FetchPath, FetchStats
from repro.resilience import BreakerState, CircuitBreaker

__all__ = ["HealthSnapshot", "ClusterHealthMonitor", "open_circuits"]

#: FetchPath entries that only occur while remapped keys re-register after
#: a routing flip: old-owner pulls and digest false positives.  Their
#: per-window delta is the remap-miss signal the controller's scale-down
#: veto reads.
REMAP_MISS_PATHS = (FetchPath.HIT_OLD, FetchPath.FALSE_POSITIVE_DB)


def open_circuits(breakers: Sequence[CircuitBreaker]) -> FrozenSet[int]:
    """The live tier's unavailable servers: the positions (provisioning
    order) of the breakers that are OPEN.  A HALF_OPEN breaker is probing
    its way back: not lost capacity."""
    return frozenset(
        server_id
        for server_id, breaker in enumerate(breakers)
        if breaker.state() is BreakerState.OPEN
    )


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
        unhealthy_servers: servers that could not take load at *at*: the
            simulator's crashed servers, or the live tier's servers behind
            an OPEN breaker (:func:`open_circuits`).
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
    unhealthy_servers: FrozenSet[int] = frozenset()
    remap_misses: int = 0
    in_transition: bool = False
    shed: int = 0

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


class ClusterHealthMonitor:
    """Aggregates resilience signals into per-window snapshots.

    Built from the objects it reads, all cumulative; the monitor
    differences consecutive reads itself, so drivers hand over the
    counters they already have and never maintain deltas.  Call
    :meth:`observe` once per control slot; it returns the new
    :class:`HealthSnapshot`.

    Args:
        stats: the drivers' :class:`FetchStats` (``engine.stats``, one per
            web server or frontend; they add up).
        unavailable: ``() -> server ids`` that cannot take load — the
            simulator's ``cluster.failed_servers``, or
            ``lambda: open_circuits(frontend.transport.breakers)``.
        in_transition: the drain-window probe, ``now -> bool``.
    """

    def __init__(
        self,
        stats: Sequence[FetchStats],
        unavailable: Callable[[], Iterable[int]],
        in_transition: Callable[[float], bool],
    ) -> None:
        self._stats = list(stats)
        self._unavailable = unavailable
        self._in_transition = in_transition
        self._last_requests = 0
        self._last_degraded: Dict[str, int] = {}
        self._last_remap = 0
        self._last_shed = 0

    def observe(self, now: float) -> HealthSnapshot:
        """Take one snapshot: read every object, difference the cumulative
        counters against the previous call, and return."""
        requests_total = 0
        degraded_total: Dict[str, int] = {e: 0 for e in DEGRADED_EVENTS}
        remap_total = 0
        shed_total = 0
        for stats in self._stats:
            requests_total += stats.total
            for event, count in stats.degraded.items():
                degraded_total[event] = degraded_total.get(event, 0) + count
            remap_total += sum(
                stats.counts.get(path, 0) for path in REMAP_MISS_PATHS
            )
            shed_total += stats.counts.get(FetchPath.SHED, 0)
        snapshot = HealthSnapshot(
            at=now,
            requests=max(0, requests_total - self._last_requests),
            degraded={
                event: max(
                    0, degraded_total[event] - self._last_degraded.get(event, 0)
                )
                for event in degraded_total
            },
            unhealthy_servers=frozenset(self._unavailable()),
            remap_misses=max(0, remap_total - self._last_remap),
            in_transition=self._in_transition(now),
            shed=max(0, shed_total - self._last_shed),
        )
        self._last_requests = requests_total
        self._last_degraded = degraded_total
        self._last_remap = remap_total
        self._last_shed = shed_total
        return snapshot
