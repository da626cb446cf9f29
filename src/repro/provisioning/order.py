"""Fixing the provisioning order (paper Section III-A).

Proteus assumes a *fixed* order ``s_1 .. s_N`` in which servers power on
and off, and notes that a "well designed order further improves power
savings.  For example, the decreasing order of server efficiency should be
better than a random order, where server efficiency is defined as the
amount of workload served per unit of energy."  Choosing the order is the
operator's job; this module provides the tooling:

* :class:`ServerSpec` — a physical server's capacity and power model;
* :func:`efficiency_order` — the decreasing-efficiency order;
* :class:`OrderedFleet` — the logical (provisioning-index) to physical
  mapping plus fleet-level energy math, used by the provisioning-order
  ablation bench to quantify what ordering buys on heterogeneous fleets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.power.model import ServerPowerModel
from repro.provisioning.policies import ProvisioningSchedule


@dataclass(frozen=True)
class ServerSpec:
    """One physical cache server's capabilities.

    Attributes:
        name: physical identifier (rack slot, hostname, ...).
        capacity: workload it can serve per second at rated load.
        power: its power model.
    """

    name: str
    capacity: float
    power: ServerPowerModel = ServerPowerModel()

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(
                f"capacity must be > 0, got {self.capacity}"
            )

    @property
    def efficiency(self) -> float:
        """Section III-A: workload served per unit of energy (req/J at peak)."""
        return self.capacity / self.power.p_peak


def efficiency_order(specs: Sequence[ServerSpec]) -> List[int]:
    """Indices of *specs* in decreasing efficiency (ties: larger capacity
    first, then input order for determinism)."""
    if not specs:
        raise ConfigurationError("need at least one server spec")
    return sorted(
        range(len(specs)),
        key=lambda i: (-specs[i].efficiency, -specs[i].capacity, i),
    )


def random_order(num_servers: int, seed: int = 0) -> List[int]:
    """A seeded random order (the baseline Section III-A argues against)."""
    if num_servers < 1:
        raise ConfigurationError(f"num_servers must be >= 1, got {num_servers}")
    order = list(range(num_servers))
    random.Random(seed).shuffle(order)
    return order


class OrderedFleet:
    """Physical servers arranged in a fixed provisioning order.

    Logical server ``i`` (the router's id space) is ``specs[order[i]]``.
    """

    def __init__(self, specs: Sequence[ServerSpec], order: Optional[Sequence[int]] = None) -> None:
        if not specs:
            raise ConfigurationError("need at least one server spec")
        if order is None:
            order = efficiency_order(specs)
        if sorted(order) != list(range(len(specs))):
            raise ConfigurationError(
                f"order must be a permutation of 0..{len(specs) - 1}"
            )
        self.specs = list(specs)
        self.order = list(order)

    def __len__(self) -> int:
        return len(self.specs)

    def spec_of(self, logical_id: int) -> ServerSpec:
        """The physical spec behind logical provisioning index *logical_id*."""
        return self.specs[self.order[logical_id]]

    def servers_for_load(self, load: float) -> int:
        """Smallest active prefix whose capacity covers *load*.

        Raises:
            ConfigurationError: the whole fleet cannot cover *load*.
        """
        total = 0.0
        for n in range(1, len(self.specs) + 1):
            total += self.spec_of(n - 1).capacity
            if total >= load:
                return n
        raise ConfigurationError(
            f"fleet capacity {total} cannot cover load {load}"
        )

    def power_draw(self, num_active: int, load: float) -> float:
        """Fleet watts with *num_active* on, *load* spread by key-space share.

        Proteus balances *keys* (and hence requests) equally, so each active
        server sees ``load / num_active`` regardless of its capacity; a slow
        server simply runs at higher utilization.  OFF servers draw standby.
        """
        if not 1 <= num_active <= len(self.specs):
            raise ConfigurationError(
                f"num_active out of range: {num_active}"
            )
        per_server = load / num_active
        watts = 0.0
        for i in range(len(self.specs)):
            spec = self.spec_of(i)
            if i < num_active:
                watts += spec.power.power(True, per_server / spec.capacity)
            else:
                watts += spec.power.power(False)
        return watts

    def schedule_for(
        self,
        slot_loads: Sequence[float],
        slot_seconds: float,
        min_servers: int = 1,
    ) -> ProvisioningSchedule:
        """Capacity-aware sizing: per slot, the smallest prefix covering the
        load (heterogeneous generalization of load-proportional sizing)."""
        counts = [
            max(min_servers, self.servers_for_load(load))
            for load in slot_loads
        ]
        return ProvisioningSchedule(slot_seconds, counts)

    def energy_joules(
        self, schedule: ProvisioningSchedule, slot_loads: Sequence[float]
    ) -> float:
        """Fleet energy over *schedule* with per-slot loads (rectangle rule)."""
        if len(slot_loads) != schedule.num_slots:
            raise ConfigurationError(
                "slot_loads must match the schedule's slot count"
            )
        return sum(
            self.power_draw(n, load) * schedule.slot_seconds
            for n, load in zip(schedule.counts, slot_loads)
        )
