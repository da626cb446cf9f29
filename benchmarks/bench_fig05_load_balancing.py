"""Fig. 5 — load balancing under dynamics: min/max load ratio per slot.

Paper: replays the real Wikipedia trace through each scenario's routing
under the recorded provisioning series and plots min(load)/max(load) over
active servers.  Result: Proteus ~ Static ~ Naive, both far above random
consistent hashing with O(log n) vnodes; the n^2/2 variant sits in between.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import fmt_row
from repro.core.router import ConsistentRouter
from repro.experiments.loadbalance import compare_routers
from repro.experiments.testbed import SCENARIOS, ScenarioSpec
from repro.provisioning.policies import ProvisioningSchedule

NUM_SERVERS = 10
NUM_SLOTS = 12


def build_scenarios():
    """Table II, plus the O(log n)-vnode ring as a fifth curve."""
    static, naive, consistent, proteus = SCENARIOS
    return [
        static,
        naive,
        ScenarioSpec("Cons-logN", ConsistentRouter, smooth=False, dynamic=True),
        replace(consistent, name="Cons-n2/2"),  # n^2/2 vnodes
        proteus,
    ]


def test_fig05_load_balancing(benchmark, wikipedia_trace):
    duration = wikipedia_trace[-1].time
    schedule = ProvisioningSchedule(
        duration / NUM_SLOTS, [8, 7, 6, 5, 4, 4, 5, 6, 7, 8, 8, 7]
    )
    results = benchmark.pedantic(
        compare_routers,
        args=(build_scenarios(), wikipedia_trace, schedule, NUM_SERVERS),
        rounds=1, iterations=1,
    )
    print("\nFig. 5 — min/max load ratio per slot (1.0 = perfectly balanced):")
    print(fmt_row("slot", list(range(NUM_SLOTS))))
    means = {}
    for name, result in results.items():
        means[name] = result.mean_ratio()
        print(fmt_row(name, [round(r, 2) for r in result.ratios()]))
    print("  means: " + ", ".join(f"{k}={v:.3f}" for k, v in means.items()))

    # Paper orderings: Proteus >= Naive ~ Static >> Consistent-logN, and the
    # n^2/2 variant beats logN but stays below Proteus.
    assert means["Proteus"] > means["Cons-logN"]
    assert means["Proteus"] > means["Cons-n2/2"]
    assert means["Naive"] > means["Cons-logN"]
    assert means["Proteus"] >= means["Naive"] - 0.05
