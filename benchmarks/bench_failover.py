"""Failure injection — DB fallback over time around a crash (Section III-E).

Not a paper figure (the paper analyzes Eq. 3 but does not run crashes); this
bench turns the replication design into a measured availability story: the
per-slot database-fallback fraction before, during, and after a crash, for
r = 1 and r = 2.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fmt_row
from repro.experiments.failover import FailoverConfig, FailoverExperiment
from repro.resilience import FaultPlan, FaultSchedule

CRASH_AT = 60.0
REPAIR_AT = 90.0
DURATION = 130.0


def run(replicas: int):
    return FailoverExperiment(FailoverConfig(
        duration=DURATION,
        num_servers=8,
        replicas=replicas,
        num_users=80,
        catalogue_size=5000,
        pages_per_user=25,
        slot_seconds=10.0,
        seed=13,
        failures=FaultSchedule().add(
            CRASH_AT, 0, FaultPlan.killed(), clear_at=REPAIR_AT
        ),
    )).run()


def test_failover_timeline(benchmark):
    reports = benchmark.pedantic(
        lambda: {r: run(r) for r in (1, 2)}, rounds=1, iterations=1
    )
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
