"""The provisioning actuator — Proteus itself, as the paper frames it.

"Our goal is to design a provisioning actuator that executes decisions
according to server provisioning policy without degrading the system
performance" (Section II).  The actuator takes the policy's ``n(t)``
schedule and drives the cache cluster through it, either smoothly (digest
broadcast + TTL drain; the Proteus scenario) or abruptly (the Naive /
Consistent scenarios).

Given an :class:`~repro.sim.events.EventLoop`, :meth:`apply_at` also
schedules the TTL-expiry finalization of a smooth transition; the
experiment runner calls it at each slot-boundary decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cache.cluster import CacheCluster

if TYPE_CHECKING:  # avoid a circular import with repro.sim.cluster
    from repro.sim.events import EventLoop


@dataclass
class AppliedTransition:
    """Record of one executed provisioning action."""

    when: float
    n_old: int
    n_new: int
    smooth: bool


class ProvisioningActuator:
    """Executes provisioning decisions against a cache cluster.

    Args:
        cluster: the cache tier to drive.
        smooth: True = Proteus transitions (digests + TTL drain);
            False = abrupt power changes (Naive / Consistent).

    Every smooth transition drains for the cluster's one fixed TTL
    (Section IV).
    """

    def __init__(self, cluster: CacheCluster, smooth: bool = True) -> None:
        self.cluster = cluster
        self.smooth = smooth
        self.applied: List[AppliedTransition] = []

    def apply(self, n_new: int, now: float) -> Optional[AppliedTransition]:
        """Move the cluster to *n_new* active servers at time *now*.

        Returns the record of the action, or ``None`` for a no-op.  With
        ``smooth=True`` the caller (or :meth:`apply_at`) must later invoke
        ``cluster.finalize_expired(deadline)`` to close the drain window.
        """
        n_old = self.cluster.active_count
        if n_new == n_old:
            return None
        if self.smooth:
            # One window at a time: if the previous one is still open the
            # TransitionManager raises; surface that as a schedule error.
            transition = self.cluster.scale_to(n_new, now)
        else:
            transition = self.cluster.abrupt_scale_to(n_new, now)
        if transition is None:
            return None
        record = AppliedTransition(
            when=now, n_old=n_old, n_new=n_new, smooth=self.smooth
        )
        self.applied.append(record)
        return record

    def apply_at(
        self, n_new: int, loop: "EventLoop"
    ) -> Optional[AppliedTransition]:
        """:meth:`apply` at the loop's current time, and arm a smooth
        transition's power-off finalization at the drain deadline on
        *loop*.  Returns the record, or ``None`` for a no-op."""
        record = self.apply(n_new, loop.now)
        if record is None or not self.smooth:
            return record
        transition = self.cluster.transitions.current(loop.now)
        if transition is not None:
            # +epsilon so the expiry check sees now >= deadline.
            loop.schedule_at(
                transition.deadline + 1e-9,
                self.cluster.finalize_expired,
                transition.deadline + 1e-9,
            )
        return record
