"""Provisioning policies and schedules.

The paper deliberately does not contribute a provisioning *policy* — it runs
one feedback loop once, records the resulting ``n(t)`` series (the circles
curve in Fig. 4), and then **applies the identical series to all four
scenarios** so that the only difference between them is load balancing and
transition behaviour.  :class:`ProvisioningSchedule` is that series; this
module builds one either from a workload trace (load-proportional sizing)
or from the delay-feedback controller in
:mod:`repro.provisioning.controller`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import ConfigurationError, ProvisioningError

#: The paper's feedback loop updates "every 30 minutes".
DEFAULT_SLOT_SECONDS = 1800.0


@dataclass
class ProvisioningSchedule:
    """A per-slot active-server-count series ``n(t)``.

    Attributes:
        slot_seconds: slot width.
        counts: ``counts[i]`` = active servers during slot ``i``.
    """

    slot_seconds: float
    counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ConfigurationError(
                f"slot_seconds must be > 0, got {self.slot_seconds}"
            )
        if not self.counts:
            raise ConfigurationError("schedule needs at least one slot")
        if any(c < 1 for c in self.counts):
            raise ProvisioningError("every slot must keep >= 1 server active")

    @property
    def num_slots(self) -> int:
        return len(self.counts)

    def slot_of(self, when: float) -> int:
        """Slot index for time *when* (clamped to the schedule)."""
        slot = int(when // self.slot_seconds)
        return min(max(slot, 0), self.num_slots - 1)

    def server_slot_total(self) -> int:
        """Sum of active counts over slots (proportional to ideal cache-tier
        energy; the Fig. 11 cache-tier saving is 1 minus this over N*slots)."""
        return sum(self.counts)


def static_schedule(
    num_servers: int, num_slots: int, slot_seconds: float = DEFAULT_SLOT_SECONDS
) -> ProvisioningSchedule:
    """The Static scenario: all servers on in every slot."""
    if num_servers < 1:
        raise ConfigurationError(f"num_servers must be >= 1, got {num_servers}")
    return ProvisioningSchedule(slot_seconds, [num_servers] * num_slots)


def load_proportional_schedule(
    slot_workloads: Sequence[float],
    per_server_capacity: float,
    num_servers: int,
    min_servers: int = 1,
    slot_seconds: float = DEFAULT_SLOT_SECONDS,
) -> ProvisioningSchedule:
    """Size each slot to its workload: ``n = ceil(workload / capacity)``.

    The paper notes the request count is "a reasonable estimation" of the
    real (memory-bound) load and uses it for provisioning; we do the same.

    Args:
        slot_workloads: per-slot request counts (or rates — any consistent
            unit).
        per_server_capacity: workload one server should carry per slot.
        num_servers: fleet size ``N`` (upper clamp).
        min_servers: lower clamp (paper keeps >= 1; production would keep a
            safety floor).
    """
    if per_server_capacity <= 0:
        raise ConfigurationError(
            f"per_server_capacity must be > 0, got {per_server_capacity}"
        )
    if not 1 <= min_servers <= num_servers:
        raise ConfigurationError(
            f"need 1 <= min_servers <= num_servers, got "
            f"({min_servers}, {num_servers})"
        )
    counts = [
        min(num_servers, max(min_servers, math.ceil(load / per_server_capacity)))
        for load in slot_workloads
    ]
    return ProvisioningSchedule(slot_seconds, counts)


def limit_step_size(
    schedule: ProvisioningSchedule, max_step: int = 1
) -> ProvisioningSchedule:
    """Clamp slot-to-slot changes to *max_step* servers.

    One transition per slot keeps each TTL drain window isolated (the
    :class:`~repro.core.transition.TransitionManager` forbids overlapping
    windows, and the paper's loop changes n gradually).
    """
    if max_step < 1:
        raise ConfigurationError(f"max_step must be >= 1, got {max_step}")
    smoothed = [schedule.counts[0]]
    for target in schedule.counts[1:]:
        previous = smoothed[-1]
        step = max(-max_step, min(max_step, target - previous))
        smoothed.append(previous + step)
    return ProvisioningSchedule(schedule.slot_seconds, smoothed)
