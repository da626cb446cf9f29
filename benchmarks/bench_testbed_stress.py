"""Three stresses on the Section VI testbed, each a call of the one runner.

* **Dog pile** — the paper's introduction cites the "memcache dog pile":
  after a mass remap, many concurrent requests miss on the same hot keys
  and *each* one hits the database.  Proteus removes the storm at the
  source (Algorithm 2); this asks how far the orthogonal mitigation —
  request coalescing at the web tier — gets the Naive scheme, and shows it
  does not reach Proteus: coalescing dedups per-key misses but every
  *distinct* remapped key still pays one DB read.
* **Flash crowd** — an unplanned load surge hits mid-valley, the stress
  case for the *actuator*: the controller orders a scale-up and the
  question is what the scale-up itself costs.  Naive's abrupt scale-up
  remaps most keys at the worst possible moment (peak load); Proteus's
  pulls remapped keys from the ceding owners and touches the DB no more
  than Static does.
* **Crash** — not a paper figure (the paper analyzes Eq. 3 but does not
  run crashes): a static schedule plus a fault script turns the
  replication design into a measured availability story, the per-slot
  database-fallback fraction before, during and after a crash, for r = 1
  and r = 2.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fmt_row
from repro.core.router import ProteusRouter
from repro.experiments.testbed import (
    SimTestbed,
    Sizing,
    run_scenarios,
    scenario,
)
from repro.provisioning.policies import ProvisioningSchedule, static_schedule
from repro.resilience import FaultPlan, FaultSchedule

REPRODUCES = (
    "Section VI: the Table II scenarios under a dog pile and a flash crowd, "
    "and Section III-E's replicas under a crash"
)


# ------------------------------------------------------------------ dog pile


def run_dogpile():
    sizing = Sizing(
        seed=23,
        catalogue_size=6000,
        cache_capacity_bytes=4096 * 1500,
        pages_per_user=50,
        num_web_servers=3,
        num_db_shards=3,
    )
    reports = run_scenarios(
        sizing, 5, 30.0,
        ProvisioningSchedule(60.0, [5, 4, 3, 4, 5]), [100, 80, 60, 80, 100],
        [scenario("naive"), scenario("naive").with_coalescing(),
         scenario("proteus")],
        plot_slots=20, warmup_seconds=15.0,
    )
    return dict(zip(["naive", "naive+coalesce", "proteus"], reports.values()))


def check_dogpile(results):
    print("\nAblation — dog-pile coalescing vs the Naive transition storm:")
    print(fmt_row("variant", ["peak p99", "db reads", "coalesced"], width=11))
    for name, report in results.items():
        print(fmt_row(
            name,
            [round(report.peak_latency(99.0), 3), report.db_requests,
             report.fetch_paths.get("coalesced", 0)],
            width=11,
        ))

    naive = results["naive"]
    coalesced = results["naive+coalesce"]
    proteus = results["proteus"]
    # Coalescing dedups the per-key storms...
    assert coalesced.db_requests < naive.db_requests
    assert coalesced.fetch_paths["coalesced"] > 0
    # ...but cannot remove the per-distinct-key remap cost: Proteus's DB
    # pressure stays far lower than even the coalesced Naive.
    assert proteus.db_requests < 0.6 * coalesced.db_requests
    assert proteus.peak_latency(99.0) <= coalesced.peak_latency(99.0)


# --------------------------------------------------------------- flash crowd


def run_flashcrowd():
    # Valley at n=3, then the crowd arrives: users triple, controller
    # reacts with +2 servers next slot, +1 after.
    sizing = Sizing(
        seed=77,
        catalogue_size=8000,
        cache_capacity_bytes=4096 * 2500,
        pages_per_user=50,
        num_web_servers=3,
        num_db_shards=3,
    )
    return run_scenarios(
        sizing, 6, 40.0,
        ProvisioningSchedule(60.0, [3, 3, 5, 6, 6, 5]),
        [50, 50, 150, 150, 150, 100],
        [scenario("static"), scenario("naive"), scenario("proteus")],
        plot_slots=24, warmup_seconds=15.0,
    )


def check_flashcrowd(reports):
    print("\nFlash crowd — users 50 -> 150 at t=120 s, fleet 3 -> 6:")
    print(fmt_row("scenario", ["peak p99", "db reads", "hit"], width=10))
    for name, report in reports.items():
        print(fmt_row(
            name,
            [round(report.peak_latency(99.0), 3), report.db_requests,
             round(report.hit_ratio, 3)],
            width=10,
        ))

    static = reports["Static"]
    naive = reports["Naive"]
    proteus = reports["Proteus"]
    # The crowd itself costs something everywhere (new users = new pages),
    # but Naive pays the remap on top.
    assert naive.db_requests > 1.2 * proteus.db_requests
    assert proteus.peak_latency(99.0) <= naive.peak_latency(99.0)
    # Proteus's surge cost stays comparable to Static's (no remap penalty).
    assert proteus.db_requests < 1.6 * static.db_requests


# --------------------------------------------------------------------- crash

CRASH_AT = 60.0
REPAIR_AT = 90.0
DURATION = 130.0
CRASH_SLOT_SECONDS = 10.0


def run_crash(replicas: int):
    slots = int(DURATION // CRASH_SLOT_SECONDS)
    testbed = SimTestbed(
        Sizing(seed=13, catalogue_size=5000,
               cache_capacity_bytes=4096 * 2000, pages_per_user=25),
        ProteusRouter(8, 2 ** 24, replicas),
        ttl=60.0,
    )
    return testbed.run(
        [80] * slots, CRASH_SLOT_SECONDS,
        static_schedule(8, slots, CRASH_SLOT_SECONDS),
        FaultSchedule().add(CRASH_AT, 0, FaultPlan.killed(), clear_at=REPAIR_AT),
    )


def check_crash(reports):
    print(f"\nFailure injection — DB-fallback fraction per 10 s slot "
          f"(crash t={CRASH_AT:.0f}, repair t={REPAIR_AT:.0f}):")
    times = reports[1].db_fraction.times
    print(fmt_row("slot mid", [int(t) for t in times], width=7))
    for replicas, report in reports.items():
        print(fmt_row(
            f"r={replicas}",
            [round(v, 3) for v in report.db_fraction.values],
            width=7,
        ))
    print("  failovers: " + ", ".join(
        f"r={r}: {report.failovers}" for r, report in reports.items()
    ))

    def window(report, lo, hi):
        return [
            v for t, v in zip(report.db_fraction.times, report.db_fraction.values)
            if lo <= t < hi
        ]

    for replicas, report in reports.items():
        pre = window(report, CRASH_AT - 10, CRASH_AT)[-1]
        crash_slot = max(window(report, CRASH_AT, REPAIR_AT))
        assert crash_slot > pre  # the crash is visible
    # Replication damps the crash spike.
    spike_r1 = max(window(reports[1], CRASH_AT, REPAIR_AT))
    spike_r2 = max(window(reports[2], CRASH_AT, REPAIR_AT))
    assert spike_r2 < spike_r1
    assert reports[2].failovers > 0 and reports[1].failovers == 0


CASES = {
    "dogpile": (run_dogpile, check_dogpile),
    "flashcrowd": (run_flashcrowd, check_flashcrowd),
    "crash": (lambda: {r: run_crash(r) for r in (1, 2)}, check_crash),
}


@pytest.mark.parametrize("case", list(CASES))
def test_testbed_stress(benchmark, case):
    run, check = CASES[case]
    check(benchmark.pedantic(run, rounds=1, iterations=1))
