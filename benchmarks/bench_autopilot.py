"""Closed-loop autopilot bench — the health-feedback gate.

A two-day diurnal workload (the Fig. 4 envelope, compressed) drives the
simulated testbed (:meth:`~repro.experiments.testbed.SimTestbed.run` with
a :class:`~repro.provisioning.controller.DelayFeedbackController` deciding
online) while a scripted :class:`~repro.resilience.FaultSchedule`
misbehaves:

* day 1, mid-valley: a cache server is killed while the fleet is at its
  minimum and repaired six slots later — the case where delay-only control
  is blind (the degraded path keeps the measured delay under the
  reference, so the open loop never reacts until the morning load rise);
* day 2, during the descent: a reset storm (two short kill/repair bursts)
  hits exactly when the open loop is shedding capacity.

Two scenarios run the **same** workload, seeds, and fault script:

* ``open_loop`` — the paper's controller: delay-only, fixed 60 s drain
  window;
* ``closed_loop`` — health feedback on (emergency scale-up on lost
  capacity, scale-down vetoes while impaired), with the same fixed 60 s
  drain window (the paper's one TTL, Section IV).

Gates:

* both scenarios answer 100% of requests (availability 1.0);
* the closed loop's p99 stays under the paper's 0.5 s delay bound;
* post-fault recovery is strictly faster closed-loop than open-loop, on
  both metrics: slots until capacity meets requirement again, and
  under-provisioned slots inside the repair horizon;
* no material energy regression: closed-loop energy <= 1.08x open-loop;
* the closed loop's remap-miss total stays within 1.5x the open loop's
  (its extra transitions must not spill meaningful extra misses to the
  database).

Results go to ``BENCH_autopilot.json``.  ``--check`` is the CI ratchet:
it re-runs the bench and fails (exit 1) if the closed loop's post-fault
recovery got slower than the committed JSON, or if either scenario's
``total_requests`` / ``active_counts`` differ from it at all (the sim is
deterministic: a moved integer means behaviour moved).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks import _ratchet  # noqa: E402
from benchmarks.conftest import fmt_row  # noqa: E402
from repro.core.router import ProteusRouter  # noqa: E402
from repro.experiments.testbed import (  # noqa: E402
    PER_SERVER_RATE,
    SimTestbed,
    Sizing,
)
from repro.provisioning.controller import DelayFeedbackController  # noqa: E402
from repro.resilience import FaultPlan, FaultSchedule  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_autopilot.json"

#: one compressed diurnal day (Fig. 4 envelope): peak -> valley -> peak.
DAY_USERS = [60, 48, 40, 32, 26, 24, 24, 24, 24, 24, 26, 32, 40, 48, 56, 60]
DAYS = 2
SLOT_SECONDS = 30.0
DELAY_BOUND = 0.5
NUM_SERVERS = 8
MIN_SERVERS = 2
TTL_SECONDS = 60.0
#: the autopilot's testbed: 4 web servers, 4 DB shards, 600 pages per
#: cache server, a PDU sample every 5 s
SIZING = Sizing(
    seed=3,
    catalogue_size=6000,
    cache_capacity_bytes=4096 * 600,
    pages_per_user=30,
    num_web_servers=4,
    num_db_shards=4,
    power_sample_period=5.0,
)

#: day-1 kill: mid-valley, while the fleet sits at its minimum.
KILL_AT = 7 * SLOT_SECONDS + 4.0
KILL_SERVER = 1
REPAIR_AT = 13 * SLOT_SECONDS
#: slots between the kill and the repair — the under-provisioning horizon.
REPAIR_HORIZON = int((REPAIR_AT - KILL_AT) // SLOT_SECONDS)

#: day-2 reset storm: two short kill/repair bursts during the descent.
STORM_SLOT = len(DAY_USERS) + 2

ENERGY_TOLERANCE = 1.08
REMAP_COST_TOLERANCE = 1.5
RATCHET_TOLERANCE = 0  # deterministic sim: any recovery slowdown fails


def fault_schedule(days: int = DAYS) -> FaultSchedule:
    """The scripted outage both scenarios replay: the day-1 kill, and the
    day-2 storm when the run lasts that long."""
    schedule = FaultSchedule().add(
        at=KILL_AT,
        server_id=KILL_SERVER,
        plan=FaultPlan.killed(),
        clear_at=REPAIR_AT,
    )
    if days < 2:
        return schedule
    storm_t = STORM_SLOT * SLOT_SECONDS
    return (
        schedule
        .add(
            at=storm_t + 3.0,
            server_id=2,
            plan=FaultPlan.killed(),
            clear_at=storm_t + 12.0,
        )
        .add(
            at=storm_t + 15.0,
            server_id=0,
            plan=FaultPlan.killed(),
            clear_at=storm_t + 24.0,
        )
    )


def run_scenario(closed: bool, days: int = DAYS) -> Dict[str, object]:
    testbed = SimTestbed(SIZING, ProteusRouter(NUM_SERVERS), ttl=TTL_SECONDS)
    controller = DelayFeedbackController(
        num_servers=NUM_SERVERS,
        delay_bound=DELAY_BOUND,
        min_servers=MIN_SERVERS,
        per_server_rate=PER_SERVER_RATE,
    )
    report = testbed.run(
        DAY_USERS * days, SLOT_SECONDS, controller, fault_schedule(days),
        health_feedback=closed,
    )
    row = report.to_dict()
    row["recovery_slots"] = report.recovery_slots(KILL_AT)
    row["underprovisioned_slots"] = report.underprovisioned_slots(
        KILL_AT, horizon_slots=REPAIR_HORIZON
    )
    return row


def run_bench(days: int = DAYS) -> Dict[str, object]:
    open_loop = run_scenario(closed=False, days=days)
    closed_loop = run_scenario(closed=True, days=days)

    for name, row in (("open_loop", open_loop), ("closed_loop", closed_loop)):
        assert row["availability"] == 1.0, (
            f"{name}: availability {row['availability']} < 1.0 — "
            f"{row['served_requests']}/{row['total_requests']} answered"
        )
    assert closed_loop["p99_latency"] <= DELAY_BOUND, (
        f"closed loop p99 {closed_loop['p99_latency']:.3f}s exceeds the "
        f"{DELAY_BOUND}s delay bound"
    )
    assert closed_loop["recovery_slots"] < open_loop["recovery_slots"], (
        "closed loop must recover capacity in strictly fewer slots: "
        f"closed {closed_loop['recovery_slots']} vs "
        f"open {open_loop['recovery_slots']}"
    )
    assert (
        closed_loop["underprovisioned_slots"]
        < open_loop["underprovisioned_slots"]
    ), (
        "closed loop must spend strictly fewer post-fault slots "
        "under-provisioned: closed "
        f"{closed_loop['underprovisioned_slots']} vs open "
        f"{open_loop['underprovisioned_slots']}"
    )
    energy_ratio = (
        closed_loop["energy_kwh"]["total"] / open_loop["energy_kwh"]["total"]
    )
    assert energy_ratio <= ENERGY_TOLERANCE, (
        f"closed loop energy regressed {energy_ratio:.3f}x over open loop "
        f"(gate <= {ENERGY_TOLERANCE}x)"
    )
    remap_budget = REMAP_COST_TOLERANCE * max(
        1, open_loop["remap_misses_total"]
    )
    assert closed_loop["remap_misses_total"] <= remap_budget, (
        "the closed loop spilled too many remap misses: closed "
        f"{closed_loop['remap_misses_total']} vs open "
        f"{open_loop['remap_misses_total']} "
        f"(gate <= {REMAP_COST_TOLERANCE}x)"
    )

    return {
        "days": days,
        "slot_seconds": SLOT_SECONDS,
        "users_per_day": DAY_USERS,
        "kill_at": KILL_AT,
        "repair_at": REPAIR_AT,
        "delay_bound": DELAY_BOUND,
        "energy_ratio": round(energy_ratio, 4),
        "scenarios": {"open_loop": open_loop, "closed_loop": closed_loop},
    }


def print_report(report: Dict[str, object]) -> None:
    print(f"\nClosed-loop autopilot ({report['days']} diurnal days, "
          f"mid-valley kill + day-2 reset storm):")
    print(fmt_row("scenario", ["avail", "p99s", "recov", "underp",
                               "kwh", "emerg", "veto"], width=8))
    for name, row in report["scenarios"].items():
        print(fmt_row(name, [
            row["availability"],
            round(row["p99_latency"], 3),
            row["recovery_slots"],
            row["underprovisioned_slots"],
            round(row["energy_kwh"]["total"], 4),
            row["emergency_scale_ups"],
            row["vetoed_scale_downs"],
        ], width=8))
    print(f"energy ratio closed/open: {report['energy_ratio']}x "
          f"(gate <= {ENERGY_TOLERANCE}x)")


def check_ratchet(report: Dict[str, object]) -> int:
    """CI ratchet: closed-loop post-fault recovery must not get slower,
    and neither scenario's request count or commanded ``n(t)`` may move —
    integers of a deterministic sim, so a difference means behaviour
    changed (regenerate the JSON on purpose, never by accident)."""
    committed = _ratchet.load_committed(JSON_PATH)
    if committed is None:
        return 1
    verdicts = []
    if report["days"] == committed["days"]:
        for scenario in ("open_loop", "closed_loop"):
            for field in ("total_requests", "active_counts"):
                old = committed["scenarios"][scenario][field]
                new = report["scenarios"][scenario][field]
                same = new == old
                verdict = "unchanged" if same else f"MOVED: {new} vs committed {old}"
                print(f"ratchet: {scenario} {field} {verdict}")
                verdicts.append(same)
    for metric in ("recovery_slots", "underprovisioned_slots"):
        old = committed["scenarios"]["closed_loop"][metric]
        new = report["scenarios"]["closed_loop"][metric]
        verdicts.append(_ratchet.check(
            f"closed-loop {metric}", new, old, old + RATCHET_TOLERANCE,
            better="lower",
        ))
    return 0 if all(verdicts) else 1


def test_autopilot_closed_loop_beats_open_loop():
    """The closed loop recovers faster at 100% availability with no
    energy regression (asserted inside :func:`run_bench`); smoke-sized
    (one day) so the tier-1 suite stays fast."""
    report = run_bench(days=1)
    closed = report["scenarios"]["closed_loop"]
    assert closed["emergency_scale_ups"] >= 1, (
        "the mid-valley kill never triggered an emergency scale-up"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="ratchet mode: fail if closed-loop post-fault recovery "
             "regressed vs the committed BENCH_autopilot.json "
             "(the file is not rewritten)",
    )
    parser.add_argument(
        "--days", type=int, default=DAYS,
        help="diurnal days to simulate (default 2; ratchet always "
             "compares like-for-like against the committed run)",
    )
    args = parser.parse_args()
    report = run_bench(days=args.days)
    print_report(report)
    if args.check:
        return check_ratchet(report)
    _ratchet.write_report(JSON_PATH, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
