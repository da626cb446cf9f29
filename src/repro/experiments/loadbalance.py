"""Routing-only load-balance evaluation (paper Fig. 5).

Fig. 5 does not need the full cluster: the paper replays the real Wikipedia
trace through each scenario's *routing function* under the recorded
provisioning schedule and, per time slot, plots ``min(load)/max(load)`` over
the active servers.  This module does exactly that — route every trace
record, bucket per (slot, server), reduce to the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.router import Router
from repro.errors import ConfigurationError
from repro.experiments.testbed import ScenarioSpec
from repro.provisioning.policies import ProvisioningSchedule
from repro.sim.metrics import min_max_ratio
from repro.workload.trace import TraceRecord


@dataclass
class LoadBalanceResult:
    """Per-slot load distribution for one router under one schedule."""

    #: per slot: how many servers the schedule had active
    active_counts: List[int]
    #: per slot: requests handled by each server id that saw traffic
    slot_loads: List[Dict[int, int]]

    def ratios(self) -> List[float]:
        """Fig. 5 metric per slot: min/max over the servers active.

        An active server that received no request counts as zero load
        (that is the point of the metric — an idle active server is an
        imbalance).
        """
        return [
            min_max_ratio([loads.get(server, 0) for server in range(active)])
            for active, loads in zip(self.active_counts, self.slot_loads)
        ]

    def worst_ratio(self) -> float:
        """The minimum (worst) slot ratio over the run."""
        return min(self.ratios())

    def mean_ratio(self) -> float:
        """Average slot ratio over the run."""
        ratios = self.ratios()
        return sum(ratios) / len(ratios)


def evaluate_load_balance(
    router: Router,
    trace: Sequence[TraceRecord],
    schedule: ProvisioningSchedule,
) -> LoadBalanceResult:
    """Route *trace* under *schedule* and collect per-slot per-server loads.

    The Static scenario is every server on: pass the schedule its
    :meth:`~repro.experiments.testbed.ScenarioSpec.provisioner` returns.
    """
    if not trace:
        raise ConfigurationError("empty trace")
    # Group the trace per slot, then answer each slot's keys with one
    # vectorized route_many batch (identical decisions to per-record route).
    slot_keys: List[List[str]] = [[] for _ in range(schedule.num_slots)]
    for record in trace:
        slot_keys[schedule.slot_of(record.time)].append(record.key)
    slot_loads: List[Dict[int, int]] = []
    for keys, active in zip(slot_keys, schedule.counts):
        loads: Dict[int, int] = {}
        if keys:
            for server in router.route_many(keys, active):
                loads[server] = loads.get(server, 0) + 1
        slot_loads.append(loads)
    return LoadBalanceResult(list(schedule.counts), slot_loads)


def compare_routers(
    specs: Sequence[ScenarioSpec],
    trace: Sequence[TraceRecord],
    schedule: ProvisioningSchedule,
    fleet: int,
) -> Dict[str, LoadBalanceResult]:
    """Fig. 5 in one call: every scenario's router over the same trace,
    each under its own provisioning of *schedule*, keyed by its name."""
    return {
        spec.name: evaluate_load_balance(
            spec.router_factory(fleet), trace,
            spec.provisioner(schedule, fleet),
        )
        for spec in specs
    }
