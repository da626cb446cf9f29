"""Smooth provisioning transition (paper Section IV, Algorithm 2).

When the provisioning policy changes the active count ``n(t) -> n(t+1)``:

1. every cache server snapshots its counting-Bloom-filter digest and the
   snapshots are broadcast to all web servers (a few KB each);
2. requests immediately route with the *new* mapping ``H_{t+1}``; on a miss
   at the new server, the web server consults the *old* owner's digest and,
   on a digest hit, fetches from the old server ("hot" data), else from the
   database; either way it writes the value into the new server;
3. after ``TTL`` seconds the servers being drained are powered off: every
   key touched within the window has already migrated, anything untouched is
   no longer "hot" and may be discarded (Section IV-A properties).

:class:`TransitionManager` is the state machine for this protocol.  It is
deliberately storage-agnostic: it tracks *which* mapping epochs are live and
*which* digests are in force; the actual fetch path (Algorithm 2 proper)
lives in :meth:`repro.core.retrieval.RetrievalEngine.retrieve_many`, which
reads the epochs and tests the digests this manager holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.bloom import hashing
from repro.bloom.bloom import BloomFilter
from repro.errors import ConfigurationError, TransitionError


@dataclass
class Transition:
    """One in-flight provisioning transition ``n_old -> n_new``.

    Attributes:
        n_old: active count under the outgoing mapping ``H_t``.
        n_new: active count under the incoming mapping ``H_{t+1}``.
        started_at: simulation time the digests were broadcast.
        ttl: drain-window length; old owners stay queryable until
            ``started_at + ttl``.
        digests: per-server digest snapshots broadcast at the start.
    """

    n_old: int
    n_new: int
    started_at: float
    ttl: float
    digests: Dict[int, BloomFilter] = field(default_factory=dict)

    @property
    def deadline(self) -> float:
        """Time at which drained servers may power off."""
        return self.started_at + self.ttl

    @property
    def is_scale_down(self) -> bool:
        return self.n_new < self.n_old

    def draining_servers(self) -> List[int]:
        """Servers that power off when the window closes (scale-down only)."""
        return list(range(self.n_new, self.n_old)) if self.is_scale_down else []

    def expired(self, now: float) -> bool:
        """True once the drain window has closed."""
        return now >= self.deadline

    def digest_hit(self, server: int, key) -> bool:
        """Check *key* against *server*'s broadcast digest.

        Returns False when no digest was broadcast for *server* — routing
        then skips the old server entirely and goes straight to the DB,
        which is the safe (if slower) fallback.
        """
        digest = self.digests.get(server)
        return digest is not None and key in digest

    def digest_hit_many(self, server: int, keys) -> List[bool]:
        """Batched :meth:`digest_hit`: element ``i`` is ``digest_hit(server,
        keys[i])`` exactly, a server without a digest included, so the
        retrieval engine's grouped check of one ceded old owner matches
        per-key consults.  A batch longer than
        :data:`~repro.bloom.hashing.SCALAR_BATCH_MAX` is one numpy pass."""
        digest = self.digests.get(server)
        if digest is None:
            return [False] * len(keys)
        if len(keys) <= hashing.SCALAR_BATCH_MAX:
            return list(map(digest.contains, keys))
        return digest.contains_many(keys)


class TransitionManager:
    """Tracks the current transition epoch for one cache cluster of
    *num_servers* servers, ``initial_active`` of them active.

    A new transition may begin only after the previous drain window has
    closed — the paper's provisioning loop runs every 30 minutes with a TTL
    of seconds, so overlap indicates a driver bug and raises
    :class:`TransitionError`.  A transition with ``ttl == 0`` is abrupt
    (Table II's Naive and Consistent): its window closes as it opens.
    """

    def __init__(self, initial_active: int, num_servers: int) -> None:
        if not 1 <= initial_active <= num_servers:
            raise ConfigurationError(
                f"initial_active must be in [1, {num_servers}], "
                f"got {initial_active}"
            )
        self.num_servers = num_servers
        #: routing outside a drain window: one frozen record, shared
        self._steady = RoutingEpochs(initial_active, None, None)
        self._current: Optional[Transition] = None
        #: callbacks fired with the list of powered-off servers when a
        #: scale-down drain window closes
        self.on_power_off: List[Callable[[List[int], float], None]] = []

    # --------------------------------------------------------------- state

    @property
    def active_count(self) -> int:
        """The committed active count (the *new* count once a transition starts)."""
        return self._steady.new

    def current(self, now: float) -> Optional[Transition]:
        """The in-flight transition, auto-completing it if the window closed."""
        if self._current is not None and self._current.expired(now):
            self._finish(self._current, self._current.deadline)
        return self._current

    def in_transition(self, now: float) -> bool:
        """True while a drain window is open."""
        return self.current(now) is not None

    # ---------------------------------------------------------------- ops

    def check(self, n_new: int, now: float, ttl: float) -> bool:
        """May a transition to *n_new* with a *ttl* window start at *now*?

        The one pre-flight of every driver, run before any side effect
        (digest snapshot, flush, power change).  Returns ``False`` for a
        no-op — ``n_new`` is already the active count, even while a window
        is open, so a schedule that repeats its count never overlaps.

        Raises:
            TransitionError: ``n_new`` is outside ``[1, num_servers]``,
                ``ttl`` is negative, or a previous drain window is still
                open.
        """
        if not 1 <= n_new <= self.num_servers:
            raise TransitionError(
                f"n_new must be in [1, {self.num_servers}], got {n_new}"
            )
        if ttl < 0:
            raise TransitionError(f"ttl must be >= 0, got {ttl}")
        if n_new == self._steady.new:
            return False
        if self.current(now) is not None:
            raise TransitionError(
                f"transition {self._current.n_old}->{self._current.n_new} "
                f"still draining until {self._current.deadline}"
            )
        return True

    def begin(
        self, n_new: int, now: float, ttl: float,
        digests: Dict[int, BloomFilter],
    ) -> Optional[Transition]:
        """Start a transition to *n_new* at time *now* (after :meth:`check`).

        Args:
            n_new: target active count.
            now: current time.
            ttl: drain-window length; ``0`` is an abrupt transition, whose
                window closes here: ``transition.end`` is emitted at *now*
                and the leaving servers power off.
            digests: digest snapshots for the servers web servers may need to
                consult — the *old owners* of remapped keys
                (:meth:`~repro.core.router.Router.ceding_servers`); empty
                for an abrupt transition.

        Returns:
            The new :class:`Transition`, or ``None`` for a no-op.

        Raises:
            TransitionError: as :meth:`check`.
        """
        if not self.check(n_new, now, ttl):
            return None
        transition = Transition(
            n_old=self._steady.new,
            n_new=n_new,
            started_at=now,
            ttl=ttl,
            digests=dict(digests),
        )
        self._current = transition
        self._steady = RoutingEpochs(n_new, None, None)
        obs.emit("transition.begin", now, n_old=transition.n_old,
                 n_new=n_new, smooth=ttl > 0, digests=sorted(digests))
        if ttl == 0:
            self._finish(transition, now)
        return transition

    def routing_counts(self, now: float) -> "RoutingEpochs":
        """The (new, old) active counts web servers should route with."""
        # Only an open window has anything to expire.
        transition = self._current and self.current(now)
        if transition is None:
            return self._steady
        return RoutingEpochs(
            new=transition.n_new, old=transition.n_old, transition=transition
        )

    # ------------------------------------------------------------ internal

    def _finish(self, transition: Transition, when: float) -> None:
        self._current = None
        powered_off = transition.draining_servers()
        obs.emit("transition.end", when, n_old=transition.n_old,
                 n_new=transition.n_new, powered_off=powered_off)
        if powered_off:
            for callback in self.on_power_off:
                callback(powered_off, when)


@dataclass(frozen=True)
class RoutingEpochs:
    """What a web server needs to route one request.

    Attributes:
        new: active count of the authoritative mapping ``H_{t+1}``.
        old: active count of the outgoing mapping ``H_t`` while a drain
            window is open, else ``None``.
        transition: the in-flight transition (digest access), or ``None``.
    """

    new: int
    old: Optional[int]
    transition: Optional[Transition]

    @property
    def in_transition(self) -> bool:
        return self.old is not None
