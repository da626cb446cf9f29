"""Drain-window (TTL) sizing policies for smooth transitions.

The paper treats the transition TTL as a fixed constant (Section III
defines "hot" as touched within the last TTL seconds; Section IV powers a
draining server off once the window closes).  But the window's *job* is to
cover the remap-miss decay: right after routing flips, every remapped key's
first fetch pays a migration (old-owner pull or database read), and the
per-interval count of those events decays roughly geometrically as the
working set re-registers under the new mapping.  A constant window either
wastes energy (drains long after the decay has finished) or spills misses
to the database (closes before it has).

Carra et al., "Elastic Provisioning of Cloud Caches: a Cost-aware TTL
Approach" (PAPERS.md) make the same observation for cache item TTLs: size
the horizon from the observed miss-cost decay, not from a constant.
:class:`AdaptiveTTLPolicy` applies that idea to the drain window: it fits
an exponential to each transition's observed remap-miss series, keeps the
estimated half-lives of recent transitions, and sizes the next window to
``half_life * log2(1 / TARGET_RESIDUAL)`` — the time after which only a
``TARGET_RESIDUAL`` fraction of the initial remap-miss rate remains —
clamped to ``[MIN_TTL, max_ttl]``.  With no observations yet it returns the
configured default, so the policy is inert until it has evidence.

:class:`FixedTTLPolicy` is the paper's constant, wrapped in the same
interface, and :data:`TTL_POLICIES` registers both by name for config and
CLI surfaces.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, Optional, Sequence, Tuple

from repro.core.registry import Registry
from repro.core.transition import DEFAULT_TTL
from repro.errors import ConfigurationError

__all__ = [
    "AdaptiveTTLPolicy",
    "FixedTTLPolicy",
    "TTL_POLICIES",
    "estimate_half_life",
    "make_ttl_policy",
]

#: an adaptive window's floor: a burst of fast decays must not close
#: windows before digests can help
MIN_TTL = 5.0
#: the remap-miss rate fraction an adaptive window lets survive
#: (0.05 -> ~4.3 half-lives)
TARGET_RESIDUAL = 0.05
#: recent transitions whose half-lives an adaptive policy remembers; the
#: median of them sizes the next window, so one anomaly cannot swing it
DECAY_WINDOW = 8


def estimate_half_life(
    samples: Iterable[Tuple[float, float]]
) -> Optional[float]:
    """Half-life of an exponentially decaying count series, or ``None``.

    *samples* are ``(time_offset, count)`` pairs — per-interval remap-miss
    counts, each count covering the interval that *ends* at its offset,
    measured from the transition's start.

    The estimator is the **median event time**: for counts decaying as
    ``e^(-lambda*t)`` the median arrival equals ``ln 2 / lambda`` — the
    half-life — exactly.  A log-linear least-squares fit would have to
    skip empty intervals (``log 0``), and empty late intervals are
    precisely the evidence of fast decay, so it systematically
    over-estimates the half-life on the sparse, noisy counts a real drain
    window yields; the quantile estimator has no such bias.

    Returns ``None`` when the series is unusable: fewer than two samples,
    no events at all, or not actually decaying (the later half of the
    window holds at least as much mass as the earlier half) — the caller
    then falls back to its default window.
    """
    points = sorted((float(t), float(c)) for t, c in samples)
    if len(points) < 2 or any(c < 0 for _, c in points):
        return None
    total = sum(c for _, c in points)
    if total <= 0:
        return None
    midpoint = (points[0][0] + points[-1][0]) / 2
    early = sum(c for t, c in points if t <= midpoint)
    if total - early >= early:
        return None
    half = total / 2
    cumulative = 0.0
    previous_t = 0.0
    for t, c in points:
        if cumulative + c >= half:
            fraction = (half - cumulative) / c
            median_t = previous_t + fraction * (t - previous_t)
            return median_t if median_t > 0 else None
        cumulative += c
        previous_t = t
    return None  # pragma: no cover - unreachable (total > 0)


class FixedTTLPolicy:
    """The paper's constant drain window behind the policy interface."""

    def __init__(self, ttl: float = DEFAULT_TTL) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be > 0, got {ttl}")
        self.ttl = ttl

    def observe_decay(
        self, samples: Sequence[Tuple[float, float]]
    ) -> Optional[float]:
        """Accepted for interface parity; a constant learns nothing."""
        return None

    def ttl_for(self, n_old: Optional[int] = None,
                n_new: Optional[int] = None) -> float:
        """The constant, whatever the transition."""
        return self.ttl


class AdaptiveTTLPolicy:
    """Sizes each drain window from observed remap-miss decay.

    Args:
        default_ttl: window used until the first usable decay observation
            (and whenever the observation history empties).
        max_ttl: the ceiling of every returned window (``MIN_TTL`` is its
            floor) — it bounds the energy a draining server can burn.

    The window is sized to ``half_life * log2(1 / TARGET_RESIDUAL)`` from
    the median of the last ``DECAY_WINDOW`` transitions' half-lives.

    The returned TTL is monotone in the observed half-life: slower decay
    (a colder working set re-registering slowly) always gets an equal or
    longer window, subject to the clamps.
    """

    def __init__(
        self,
        default_ttl: float = DEFAULT_TTL,
        max_ttl: float = 300.0,
    ) -> None:
        if max_ttl < MIN_TTL:
            raise ConfigurationError(
                f"need max_ttl >= {MIN_TTL}, got {max_ttl}"
            )
        if default_ttl <= 0:
            raise ConfigurationError(
                f"default_ttl must be > 0, got {default_ttl}"
            )
        self.default_ttl = default_ttl
        self.max_ttl = max_ttl
        self.half_lives: Deque[float] = deque(maxlen=DECAY_WINDOW)

    # ------------------------------------------------------------- learning

    def observe_decay(
        self, samples: Sequence[Tuple[float, float]]
    ) -> Optional[float]:
        """Feed one transition's remap-miss series; returns the half-life
        recorded (``None`` when the series was unusable — not decaying or
        too short — in which case nothing is recorded)."""
        half_life = estimate_half_life(samples)
        if half_life is not None:
            self.half_lives.append(half_life)
        return half_life

    # -------------------------------------------------------------- sizing

    @property
    def _median_half_life(self) -> Optional[float]:
        if not self.half_lives:
            return None
        ordered = sorted(self.half_lives)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    def ttl_for(self, n_old: Optional[int] = None,
                n_new: Optional[int] = None) -> float:
        """The drain window for the next transition, clamped to bounds.

        ``n_old``/``n_new`` are accepted for interface parity (a future
        policy may scale the window with the remap fraction); the current
        sizing uses only the observed decay.
        """
        half_life = self._median_half_life
        if half_life is None:
            raw = self.default_ttl
        else:
            raw = half_life * math.log2(1.0 / TARGET_RESIDUAL)
        return min(self.max_ttl, max(MIN_TTL, raw))


#: TTL-sizing policies by name ("fixed" is the paper's constant window).
TTL_POLICIES: Registry = Registry("ttl policy")
TTL_POLICIES.register("fixed", FixedTTLPolicy)
TTL_POLICIES.register("adaptive", AdaptiveTTLPolicy)


def make_ttl_policy(name: str, **kwargs):
    """Instantiate a TTL policy by registered name."""
    return TTL_POLICIES.create(name, **kwargs)
