#!/usr/bin/env python3
"""A day of Wikipedia traffic — the paper's end-to-end methodology, small.

Reproduces the evaluation pipeline at demo scale:

1. synthesize a diurnal Zipf trace (the Fig. 4 dots);
2. run the delay-feedback loop once to get the n(t) schedule (the circles);
3. replay the *identical* schedule and workload through the Naive and
   Proteus scenarios (Table II);
4. print the per-slot tail latency and the energy bill for both — the
   Fig. 9 spike and the Fig. 11 savings, side by side.

Run:  python examples/wikipedia_day.py           (~1 minute)
"""

from repro import (
    ScenarioSpec,
    SimTestbed,
    Sizing,
    generate_trace,
    run_feedback_loop,
)
from repro.provisioning import limit_step_size
from repro.workload import slot_counts

SLOTS = 10
SLOT_SECONDS = 60.0


def main() -> None:
    duration = SLOTS * SLOT_SECONDS
    trace = generate_trace(
        duration=duration, mean_rate=400.0, num_pages=10_000,
        peak_to_valley=2.0, seed=7,
    )
    counts = slot_counts(trace, SLOT_SECONDS, SLOTS)
    print("Workload (requests/slot):", counts)

    rates = [c / SLOT_SECONDS for c in counts]
    schedule = limit_step_size(run_feedback_loop(
        rates, num_servers=8, per_server_rate=max(rates) / 5,
        slot_seconds=SLOT_SECONDS,
    ))
    print("Provisioning n(t):       ", schedule.counts)

    users = [max(20, int(c / SLOT_SECONDS / 2)) for c in counts]
    sizing = Sizing(
        seed=7,
        catalogue_size=10_000,
        cache_capacity_bytes=4096 * 2000,
        pages_per_user=50,
        num_web_servers=4,
        num_db_shards=4,
    )

    reports = {}
    for spec in (ScenarioSpec.naive(), ScenarioSpec.proteus()):
        print(f"\nRunning the {spec.name} scenario ...")
        # One testbed per scenario: 8 cache servers, a 40 s drain window
        # (none for Naive's abrupt transitions).
        testbed = SimTestbed(
            sizing, spec.router_factory(8), ttl=40.0 if spec.smooth else 0.0
        )
        reports[spec.name] = testbed.run(
            users, SLOT_SECONDS, schedule, plot_slots=20, warmup_seconds=20.0
        )

    print("\np99 response time per plot slot (seconds):")
    for name, report in reports.items():
        series = report.latency_percentiles(99.0)
        print(f"  {name:<8s}" + " ".join(f"{v:6.3f}" for v in series.values))

    print("\nSummary:")
    for name, report in reports.items():
        print(
            f"  {name:<8s} peak p99 {report.peak_latency(99.0):6.3f}s   "
            f"DB reads {report.db_requests:6d}   "
            f"energy {report.energy_kwh['total']:.4f} kWh "
            f"(cache tier {report.energy_kwh['cache']:.4f})"
        )
    naive, proteus = reports["Naive"], reports["Proteus"]
    print(
        f"\nProteus removes the transition spike "
        f"({naive.peak_latency(99.0) / max(1e-9, proteus.peak_latency(99.0)):.1f}x "
        f"lower peak) at the same energy bill "
        f"({proteus.energy_kwh['total'] / naive.energy_kwh['total']:.2f}x)."
    )


if __name__ == "__main__":
    main()
