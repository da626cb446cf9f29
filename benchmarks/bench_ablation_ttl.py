"""Ablation — the TTL drain window: migration completeness vs energy cost.

Section IV argues servers "can be safely turned off after TTL seconds":
anything untouched within TTL is no longer hot.  The knob trades two costs:

* short TTL — the drained server powers off sooner (energy), but keys whose
  natural revisit interval exceeds TTL are lost and must be refetched from
  the database later;
* long TTL — near-complete on-demand migration, but the server idles longer.

We scale 4 -> 3 under a closed-loop population whose mean page revisit
interval is ~12 s, sweep TTL, and report post-transition DB reads plus the
extra server-on seconds.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import fmt_row
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.web.frontend import WebServer
from repro.workload.synthetic import UserPopulation

REPRODUCES = (
    "Section IV: servers can be safely turned off after TTL seconds"
)

CFG = optimal_config(5000)
TTLS = [2.0, 5.0, 15.0, 40.0, 90.0]
OBSERVE = 60.0  # seconds of traffic after the transition


def run_ttl(ttl: float) -> dict:
    cache = CacheCluster(
        ProteusRouter(4, ring_size=2 ** 24), capacity_bytes=4096 * 5000,
        initial_active=4, bloom_config=CFG,
    )
    db = DatabaseCluster(3)
    web = WebServer(0, cache, db)
    population = UserPopulation(3000, pages_per_user=24, think_time=0.5, seed=9)
    population.resize_to(40)
    rng = random.Random(4)
    # Warm phase: every user cycles its pages (mean revisit ~ 24*0.5 = 12 s).
    t = 0.0
    while t < 30.0:
        user = rng.choice(population.active)
        web.fetch(user.next_key(), t)
        t += 0.025
    db_before = db.total_requests()
    cache.scale_to(3, t, ttl)
    end = t + OBSERVE
    while t < end:
        cache.finalize_expired(t)
        user = rng.choice(population.active)
        web.fetch(user.next_key(), t)
        t += 0.025
    return {
        "db_reads": db.total_requests() - db_before,
        "extra_on_seconds": min(ttl, OBSERVE),
    }


def test_ablation_ttl(benchmark):
    rows = benchmark.pedantic(
        lambda: {ttl: run_ttl(ttl) for ttl in TTLS}, rounds=1, iterations=1
    )
    print("\nAblation — TTL drain window vs post-transition DB reads:")
    print(fmt_row("TTL (s)", TTLS, width=9))
    print(fmt_row("db reads", [rows[t]["db_reads"] for t in TTLS], width=9))
    print(fmt_row("extra on-s", [rows[t]["extra_on_seconds"] for t in TTLS], width=9))

    reads = [rows[t]["db_reads"] for t in TTLS]
    # Longer windows strictly reduce refetch pressure...
    assert reads[0] > reads[-1]
    # ...and a TTL comfortably above the revisit interval (~12 s) recovers
    # most of the loss: going 40 -> 90 changes little.
    assert reads[-2] - reads[-1] < (reads[0] - reads[-1]) * 0.35
