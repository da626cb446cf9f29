"""Ablation — the provisioning order on a heterogeneous fleet (Section III-A).

"Well designed order further improves power savings.  For example, the
decreasing order of server efficiency should be better than a random
order."  We build a mixed fleet (three server generations), run the same
diurnal load through capacity-aware schedules under (a) the decreasing-
efficiency order, (b) the *increasing*-efficiency order, and (c) random
orders, and compare fleet energy.
"""

from __future__ import annotations

import math
import statistics

import pytest

from benchmarks.conftest import fmt_row
from repro.power.model import ServerPowerModel
from repro.provisioning.order import (
    OrderedFleet,
    ServerSpec,
    efficiency_order,
    random_order,
)

REPRODUCES = (
    "Section III-A: the decreasing order of server efficiency should be "
    "better than a random order"
)

#: Three generations: newer = more capacity per watt.
SPECS = (
    [ServerSpec(f"gen3-{i}", 300, ServerPowerModel(5, 60, 100)) for i in range(3)]
    + [ServerSpec(f"gen2-{i}", 220, ServerPowerModel(5, 75, 125)) for i in range(3)]
    + [ServerSpec(f"gen1-{i}", 150, ServerPowerModel(5, 90, 150)) for i in range(3)]
)

SLOT_SECONDS = 1800.0
#: one diurnal day of fleet load (requests/s), peak ~2x valley
LOADS = [
    650, 560, 480, 420, 400, 430, 520, 640, 780, 900, 980, 1010,
    990, 930, 850, 760, 700, 680, 720, 800, 870, 860, 790, 710,
]


def energy_for(order) -> float:
    fleet = OrderedFleet(SPECS, order=order)
    schedule = fleet.schedule_for(LOADS, SLOT_SECONDS)
    return fleet.energy_joules(schedule, LOADS) / 3.6e6  # kWh


def sweep():
    best = efficiency_order(SPECS)
    worst = list(reversed(best))
    randoms = [energy_for(random_order(len(SPECS), seed=s)) for s in range(6)]
    return {
        "efficiency": energy_for(best),
        "reverse": energy_for(worst),
        "random_mean": statistics.mean(randoms),
        "random_min": min(randoms),
        "random_max": max(randoms),
    }


def test_ablation_provisioning_order(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — fleet energy (kWh/day) vs provisioning order "
          f"({len(SPECS)} mixed-generation servers):")
    print(fmt_row("order", ["kWh"], width=10))
    for name in ("efficiency", "random_mean", "reverse"):
        print(fmt_row(name, [round(rows[name], 3)], width=10))
    saving = 1 - rows["efficiency"] / rows["reverse"]
    print(f"  efficiency-order saves {saving:.1%} vs the worst order "
          f"(random spread: {rows['random_min']:.3f}-{rows['random_max']:.3f})")

    # Section III-A's claim, quantified.
    assert rows["efficiency"] < rows["random_mean"] < rows["reverse"]
    assert not math.isclose(rows["efficiency"], rows["reverse"], rel_tol=0.01)
