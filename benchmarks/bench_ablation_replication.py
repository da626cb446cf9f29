"""Ablation — what r-way replication (Section III-E) buys on server crashes.

The paper proposes r replica rings for fault tolerance and derives the
no-conflict probability (Eq. 3) but does not evaluate crashes.  We do: warm
a cluster, crash one server, and measure how many of the next reads fall
through to the database, for r = 1, 2, 3.  With r=1 every key owned by the
dead server is a DB read; with r>=2 only keys whose replicas *collided*
onto the dead server (≈ (r-1)/n of its keys, per Eq. 3) are lost.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fmt_row
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.replication import no_conflict_probability
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.web.frontend import WebServer

CFG = optimal_config(5000)
N = 8
KEYS = 1200
REPLICAS = [1, 2, 3]


def run_crash(replicas: int) -> dict:
    cache = CacheCluster(
        ProteusRouter(N, 2 ** 24, replicas=replicas),
        capacity_bytes=4096 * 5000, bloom_config=CFG,
    )
    db = DatabaseCluster(4)
    web = WebServer(0, cache, db)
    t = 0.0
    keys = [f"page:{i}" for i in range(KEYS)]
    for key in keys:
        web.fetch(key, t)
        t += 0.01
    victim = 0
    victim_keys = sum(1 for k in keys if cache.router.route(k, N) == victim)
    db_before = db.total_requests()
    cache.fail_server(victim, now=t)
    for key in keys:
        web.fetch(key, t + 1.0)
        t += 0.01
    return {
        "db_reads": db.total_requests() - db_before,
        "victim_keys": victim_keys,
        "failovers": web.stats.failovers,
    }


def test_ablation_replication(benchmark):
    results = benchmark.pedantic(
        lambda: {r: run_crash(r) for r in REPLICAS}, rounds=1, iterations=1
    )
    print(f"\nAblation — DB reads after crashing 1 of {N} servers "
          f"({KEYS} hot keys re-read):")
    print(fmt_row("replicas", ["db_reads", "victim_keys", "failovers"], width=12))
    for r, row in results.items():
        print(fmt_row(f"r={r}", [row["db_reads"], row["victim_keys"],
                                 row["failovers"]], width=12))
    print("  Eq. 3 no-conflict probability at n=8: "
          + ", ".join(f"r={r}: {no_conflict_probability(r, N):.3f}"
                      for r in REPLICAS))

    # r=1: every victim-owned key becomes a DB read.
    assert results[1]["db_reads"] == results[1]["victim_keys"]
    assert results[1]["failovers"] == 0
    # r=2: most victim keys fail over to their replica.
    assert results[2]["db_reads"] < results[1]["db_reads"] * 0.4
    assert results[2]["failovers"] > 0
    # r=3: virtually nothing reaches the DB.
    assert results[3]["db_reads"] <= results[2]["db_reads"]
    assert results[3]["db_reads"] < KEYS * 0.02
