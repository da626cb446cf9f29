"""The provisioning actuator — Proteus itself, as the paper frames it.

"Our goal is to design a provisioning actuator that executes decisions
according to server provisioning policy without degrading the system
performance" (Section II).  The actuator takes the policy's ``n(t)``
schedule and drives the cache cluster through it, either smoothly (digest
broadcast + TTL drain; the Proteus scenario) or abruptly (the Naive /
Consistent scenarios).

When given an :class:`~repro.sim.events.EventLoop`, the actuator schedules
its own slot-boundary applications and the TTL-expiry finalization:
a schedule-replaying driver only calls :meth:`install`, an online
controller calls :meth:`apply_at` at each decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cache.cluster import CacheCluster
from repro.errors import ProvisioningError
from repro.provisioning.policies import ProvisioningSchedule

if TYPE_CHECKING:  # avoid a circular import with repro.sim.cluster
    from repro.sim.events import EventLoop


@dataclass
class AppliedTransition:
    """Record of one executed provisioning action.

    ``ceding`` and ``expected_remap`` capture the router's remap metadata
    at apply time: which old owners were asked for digests, and the
    predicted remapped key fraction (``None`` for a router without the
    estimate — Static and Naive).
    """

    when: float
    n_old: int
    n_new: int
    smooth: bool
    ceding: Optional[List[int]] = None
    expected_remap: Optional[float] = None


class ProvisioningActuator:
    """Executes a provisioning schedule against a cache cluster.

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
        ``smooth=True`` the caller (or the event loop wiring in
        :meth:`install`) must later invoke
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
        router = self.cluster.router
        expected = getattr(router, "expected_remap_fraction", None)
        record = AppliedTransition(
            when=now,
            n_old=n_old,
            n_new=n_new,
            smooth=self.smooth,
            ceding=router.ceding_servers(n_old, n_new),
            expected_remap=expected(n_old, n_new) if callable(expected) else None,
        )
        self.applied.append(record)
        return record

    def install(
        self, schedule: ProvisioningSchedule, loop: "EventLoop"
    ) -> List[Tuple[float, int]]:
        """Schedule every slot-boundary change of *schedule* on *loop*.

        Also arms the TTL finalization event after each smooth scale-down.
        Returns the ``(time, n_new)`` pairs that were armed.
        """
        armed: List[Tuple[float, int]] = []
        for when, _n_old, n_new in schedule.transitions():
            if when < loop.now:
                raise ProvisioningError(
                    f"schedule transition at {when} is in the loop's past "
                    f"({loop.now})"
                )
            loop.schedule_at(when, self.apply_at, n_new, loop)
            armed.append((when, n_new))
        return armed

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
