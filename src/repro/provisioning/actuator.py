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

from typing import TYPE_CHECKING, Optional

from repro.cache.cluster import CacheCluster
from repro.core.transition import Transition

if TYPE_CHECKING:  # avoid a circular import with repro.sim.cluster
    from repro.sim.events import EventLoop


class ProvisioningActuator:
    """Executes provisioning decisions against a cache cluster.

    Args:
        cluster: the cache tier to drive.
        smooth: True = Proteus transitions (digests + TTL drain);
            False = abrupt power changes (Naive / Consistent).

    Every smooth transition drains for the cluster's one fixed TTL
    (Section IV).  What it did is on the :mod:`repro.obs` timeline.
    """

    def __init__(self, cluster: CacheCluster, smooth: bool = True) -> None:
        self.cluster = cluster
        self.smooth = smooth

    def apply(self, n_new: int, now: float) -> Optional[Transition]:
        """Move the cluster to *n_new* active servers at time *now*.

        Returns the started transition, or ``None`` for a no-op.  With
        ``smooth=True`` the caller (or :meth:`apply_at`) must later invoke
        ``cluster.finalize_expired(deadline)`` to close the drain window;
        an abrupt one has already completed.
        """
        if self.smooth:
            # One window at a time: if the previous one is still open the
            # TransitionManager raises; surface that as a schedule error.
            return self.cluster.scale_to(n_new, now)
        return self.cluster.abrupt_scale_to(n_new, now)

    def apply_at(self, n_new: int, loop: "EventLoop") -> Optional[Transition]:
        """:meth:`apply` at the loop's current time, and arm a smooth
        transition's power-off finalization at the drain deadline on
        *loop*.  Returns the transition, or ``None`` for a no-op."""
        transition = self.apply(n_new, loop.now)
        if transition is not None and self.smooth:
            # +epsilon so the expiry check sees now >= deadline.
            loop.schedule_at(
                transition.deadline + 1e-9,
                self.cluster.finalize_expired,
                transition.deadline + 1e-9,
            )
        return transition
