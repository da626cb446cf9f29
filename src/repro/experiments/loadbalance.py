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

from repro.core.router import Router, StaticRouter
from repro.errors import ConfigurationError
from repro.provisioning.policies import ProvisioningSchedule
from repro.sim.metrics import min_max_ratio
from repro.workload.trace import TraceRecord


@dataclass
class LoadBalanceResult:
    """Per-slot load distribution for one router under one schedule."""

    router_name: str
    #: per slot: requests handled by each server id that saw traffic
    slot_loads: List[Dict[int, int]]

    def ratios(self) -> List[float]:
        """Fig. 5 metric per slot: min/max over servers *expected* active.

        Servers that were active but received zero requests count as zero
        load (that is the point of the metric — an idle active server is an
        imbalance), so the ratio uses the active-set size recorded at
        evaluation time via the ``_active`` sentinel key.
        """
        out: List[float] = []
        for loads in self.slot_loads:
            active = loads.get(_ACTIVE_SENTINEL)
            if active is None:
                raise ConfigurationError("slot missing active-count sentinel")
            per_server = [
                loads.get(server, 0) for server in range(active)
            ]
            out.append(min_max_ratio(per_server))
        return out

    def worst_ratio(self) -> float:
        """The minimum (worst) slot ratio over the run."""
        return min(self.ratios())

    def mean_ratio(self) -> float:
        """Average slot ratio over the run."""
        ratios = self.ratios()
        return sum(ratios) / len(ratios)


#: Sentinel key inside a slot's load dict holding the active count.
_ACTIVE_SENTINEL = -1


def evaluate_load_balance(
    router: Router,
    trace: Sequence[TraceRecord],
    schedule: ProvisioningSchedule,
) -> LoadBalanceResult:
    """Route *trace* under *schedule* and collect per-slot per-server loads.

    The Static scenario routes over all ``N`` servers regardless of the
    schedule (Table II), which :class:`StaticRouter` already encodes by
    ignoring ``num_active``; its ratio is computed over all ``N``.
    """
    if not trace:
        raise ConfigurationError("empty trace")
    num_slots = schedule.num_slots
    slot_loads: List[Dict[int, int]] = [dict() for _ in range(num_slots)]
    is_static = isinstance(router, StaticRouter)
    for slot in range(num_slots):
        active = router.num_servers if is_static else schedule.counts[slot]
        slot_loads[slot][_ACTIVE_SENTINEL] = active
    # Group the trace per slot, then answer each slot's keys with one
    # vectorized route_many batch (identical decisions to per-record route).
    slot_keys: List[List[str]] = [[] for _ in range(num_slots)]
    for record in trace:
        slot_keys[schedule.slot_of(record.time)].append(record.key)
    for slot, keys in enumerate(slot_keys):
        if not keys:
            continue
        active = slot_loads[slot][_ACTIVE_SENTINEL]
        loads = slot_loads[slot]
        for server in router.route_many(keys, active):
            loads[server] = loads.get(server, 0) + 1
    return LoadBalanceResult(
        router_name=router.name,
        slot_loads=slot_loads,
    )


def compare_routers(
    routers: Sequence[Router],
    trace: Sequence[TraceRecord],
    schedule: ProvisioningSchedule,
) -> Dict[str, LoadBalanceResult]:
    """Fig. 5 in one call: every router over the same trace and schedule."""
    results: Dict[str, LoadBalanceResult] = {}
    for router in routers:
        result = evaluate_load_balance(router, trace, schedule)
        name = result.router_name
        # Disambiguate multiple Consistent variants.
        suffix = 2
        while name in results:
            name = f"{result.router_name}#{suffix}"
            suffix += 1
        results[name] = result
    return results
