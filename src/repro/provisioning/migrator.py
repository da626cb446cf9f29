"""Push-based background migration — an extension beyond the paper.

Proteus migrates hot data *on demand*: the first request for a remapped key
pulls it from the old owner (Algorithm 2).  The cost model is elegant —
zero wasted bandwidth — but it leaves a residue: keys that are hot on a
timescale *longer* than the TTL window are lost at power-off and must be
refetched from the database later (quantified by
``benchmarks/bench_ablation_ttl.py``).

:class:`BackgroundMigrator` trades bandwidth for that residue: during the
drain window it walks the moving keys of each source server in
most-recently-used-first order and *pushes* them to their new owners, rate
limited to ``batch_size`` keys every ``interval`` seconds.  Requests keep
using Algorithm 2 concurrently; a push never overwrites a newer value at
the destination (the destination may have been write-through-updated), and
keys the on-demand path already migrated are skipped for free.

This composes with the paper's protocol rather than replacing it: with the
migrator on, power-off at the TTL deadline loses only the keys that neither
a request nor the pusher reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cache.cluster import CacheCluster
from repro.core.transition import Transition
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # avoid importing the sim package at runtime
    from repro.sim.events import EventLoop


@dataclass
class MigrationProgress:
    """Counters for one background-migration run."""

    pushed: int = 0
    skipped_present: int = 0
    skipped_stale: int = 0
    ticks: int = 0
    bytes_pushed: int = 0


class BackgroundMigrator:
    """Rate-limited pusher for one transition's moving keys.

    Args:
        cluster: the cache tier.
        transition: the in-flight transition whose drain window we fill.
        batch_size: keys pushed per tick (the bandwidth knob).
        interval: seconds between ticks.

    Only keys touched within the transition's TTL — the paper's hotness
    horizon — are pushed.
    """

    def __init__(
        self,
        cluster: CacheCluster,
        transition: Transition,
        batch_size: int = 100,
        interval: float = 1.0,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        self.cluster = cluster
        self.transition = transition
        self.batch_size = batch_size
        self.interval = interval
        self.progress = MigrationProgress()
        self._queue: Optional[List[str]] = None

    # ------------------------------------------------------------- planning

    def _source_servers(self) -> List[int]:
        """Servers whose keys move — the transition's ceding set.

        Populated from the router's remap metadata when the
        transition was begun with a ``ceding`` hint (for Proteus
        scale-down: exactly the draining servers); otherwise the
        conservative every-old-owner fallback.
        """
        return self.transition.ceding_servers()

    def _moving_keys(self, now: float) -> List[str]:
        """Hot keys that change owner, MRU-first per source server."""
        router = self.cluster.router
        n_old, n_new = self.transition.n_old, self.transition.n_new
        moving: List[str] = []
        for source in self._source_servers():
            server = self.cluster.server(source)
            if not server.state.serves_requests:
                continue
            items = [
                server.store.peek(key)
                for key in server.store.hot_keys(now, self.transition.ttl)
            ]
            items = [item for item in items if item is not None]
            items.sort(key=lambda item: -item.last_access)  # MRU first
            for item in items:
                if (
                    router.route(item.key, n_old) == source
                    and router.route(item.key, n_new) != source
                ):
                    moving.append(item.key)
        return moving

    # ------------------------------------------------------------- pushing

    def tick(self, now: float) -> int:
        """Push up to ``batch_size`` keys; returns how many were pushed.

        Idempotent after exhaustion; safe to call after the window closed
        (it simply pushes nothing because sources are powered off).
        """
        if self._queue is None:
            self._queue = self._moving_keys(now)
        self.progress.ticks += 1
        pushed = 0
        router = self.cluster.router
        n_old, n_new = self.transition.n_old, self.transition.n_new
        while self._queue and pushed < self.batch_size:
            key = self._queue.pop(0)
            source = self.cluster.server(router.route(key, n_old))
            destination = self.cluster.server(router.route(key, n_new))
            if not source.state.serves_requests:
                self.progress.skipped_stale += 1
                continue
            item = source.store.peek(key)
            if item is None or item.expired(now) or item.created_at > now:
                self.progress.skipped_stale += 1
                continue
            if destination.store.peek(key) is not None:
                # Already migrated (on demand, or by write-through).
                self.progress.skipped_present += 1
                continue
            destination.set(key, item.value, now=now, size=item.size)
            self.progress.pushed += 1
            self.progress.bytes_pushed += item.size
            pushed += 1
        return pushed

    @property
    def done(self) -> bool:
        """True once the queue has been built and drained."""
        return self._queue is not None and not self._queue

    def install(self, loop: "EventLoop") -> None:
        """Schedule ticks on *loop* until the window closes or the queue
        drains."""
        def run_tick() -> None:
            if loop.now >= self.transition.deadline:
                return
            self.tick(loop.now)
            if not self.done and loop.now + self.interval < self.transition.deadline:
                loop.schedule(self.interval, run_tick)

        loop.schedule_at(max(loop.now, self.transition.started_at), run_tick)
