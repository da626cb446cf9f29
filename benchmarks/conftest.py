"""Shared fixtures for the figure-reproduction benchmarks.

Conventions:

* Every bench prints the rows/series the paper's figure or table reports,
  prefixed with the figure id, so ``pytest benchmarks/ --benchmark-only -s``
  regenerates the evaluation section in text form.
* The expensive 4-scenario cluster runs (Figs. 9, 10, 11) execute once per
  session and are shared.
* ``PROTEUS_BENCH_SCALE`` (float, default 1.0) scales run lengths and user
  counts for higher-fidelity runs on bigger machines.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.experiments.testbed import RunReport, Sizing, run_scenarios
from repro.provisioning.policies import ProvisioningSchedule
from repro.workload.trace import TraceRecord
from repro.workload.wikipedia import generate_trace

SCALE = float(os.environ.get("PROTEUS_BENCH_SCALE", "1.0"))


def fmt_row(label: str, values, width: int = 8, precision: int = 3) -> str:
    """One aligned table row for figure output."""
    cells = "".join(
        f"{value:>{width}.{precision}f}" if isinstance(value, float)
        else f"{value:>{width}}"
        for value in values
    )
    return f"  {label:<16s}{cells}"


@pytest.fixture(scope="session")
def paper_schedule() -> ProvisioningSchedule:
    """The shared n(t) series all scenarios replay (the Fig. 4 circles).

    Shape mirrors the paper's day: start high, descend to the nadir, climb
    back; 12 slots standing in for the 48 half-hour slots.
    """
    counts = [8, 7, 6, 5, 4, 4, 5, 6, 7, 8, 8, 7]
    return ProvisioningSchedule(round(90 * SCALE, 3), counts)


@pytest.fixture(scope="session")
def users_per_slot(paper_schedule) -> List[int]:
    """Closed-loop population targets proportional to the workload curve."""
    return [int(n * 22 * SCALE) if SCALE >= 1 else n * 22
            for n in paper_schedule.counts]


@pytest.fixture(scope="session")
def scenario_reports(paper_schedule, users_per_slot) -> Dict[str, RunReport]:
    """The shared Figs. 9-11 runs: all four Table II scenarios, identical
    schedule/workload/seeds (the paper's method), on 8 cache servers."""
    sizing = Sizing(
        seed=42,
        catalogue_size=12_000,
        cache_capacity_bytes=4096 * 2000,
        pages_per_user=50,
        num_web_servers=4,
        num_db_shards=4,
    )
    return run_scenarios(
        sizing, 8, 45.0, paper_schedule, users_per_slot,
        plot_slots=48, warmup_seconds=30.0,
    )


@pytest.fixture(scope="session")
def wikipedia_trace() -> List[TraceRecord]:
    """A diurnal Zipf trace standing in for the 2011 Wikipedia trace."""
    return generate_trace(
        duration=600.0 * SCALE,
        mean_rate=500.0,
        num_pages=30_000,
        alpha=0.9,
        peak_to_valley=2.0,
        seed=42,
    )
