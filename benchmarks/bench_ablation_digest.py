"""Ablation — what the counting-Bloom-filter digest buys Algorithm 2.

Compares three transition strategies on the same scale-down:

* ``digest``      — Algorithm 2 as published (check digest, then old server);
* ``always-old``  — skip the digest, always try the old server on a miss
  (wastes a cache round trip on every cold key, but finds all hot data);
* ``straight-db`` — never consult the old server (the Consistent scenario's
  behaviour): every remapped key pays a database read.

The digest matches always-old on DB pressure while sending (near) zero
wasted probes — quantifying Section IV-A's "no bandwidth and computational
resources are wasted".
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fmt_row
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.web.frontend import FetchPath, WebServer

REPRODUCES = (
    "Section IV-A: the digest wastes no bandwidth on old-server probes "
    "for keys the old server does not hold"
)

CFG = optimal_config(5000)
WARM_KEYS = 600
COLD_KEYS = 300


def run_strategy(strategy: str):
    cache = CacheCluster(
        ProteusRouter(6, ring_size=2 ** 24), capacity_bytes=4096 * 5000,
        initial_active=6, bloom_config=CFG,
    )
    db = DatabaseCluster(3)
    web = WebServer(0, cache, db)
    t = 0.0
    warm = [f"page:{i}" for i in range(WARM_KEYS)]
    for key in warm:
        web.fetch(key, t)
        t += 0.01
    db_before = db.total_requests()
    transition = cache.scale_to(5, t, 120.0)
    if strategy == "straight-db":
        transition.digests.clear()  # no digest -> Algorithm 2 skips the old server
    elif strategy == "always-old":
        from repro.bloom.bloom import BloomFilter

        lying = BloomFilter(8, num_hashes=1)
        lying._bits = bytearray(b"\xff")
        for server in list(transition.digests):
            transition.digests[server] = lying
    # Touch all warm keys plus some cold ones during the window.
    cold = [f"cold:{i}" for i in range(COLD_KEYS)]
    old_probes = 0
    for key in warm + cold:
        result = web.fetch(key, t)
        if result.path in (FetchPath.HIT_OLD, FetchPath.FALSE_POSITIVE_DB):
            old_probes += 1
        t += 0.01
    return {
        "db_reads": db.total_requests() - db_before,
        "old_probes": old_probes,
        "hit_old": web.stats.counts[FetchPath.HIT_OLD],
        "false_pos": web.stats.counts[FetchPath.FALSE_POSITIVE_DB],
    }


def test_ablation_digest_value(benchmark):
    results = benchmark.pedantic(
        lambda: {s: run_strategy(s) for s in ("digest", "always-old", "straight-db")},
        rounds=1, iterations=1,
    )
    print("\nAblation — transition strategy vs DB pressure and wasted probes")
    print(f"  ({WARM_KEYS} hot + {COLD_KEYS} cold keys touched during the window):")
    print(fmt_row("strategy", ["db_reads", "old_probes", "hit_old", "false_pos"], width=11))
    for name, row in results.items():
        print(fmt_row(name, [row["db_reads"], row["old_probes"],
                             row["hit_old"], row["false_pos"]], width=11))

    digest, always, straight = (
        results["digest"], results["always-old"], results["straight-db"]
    )
    # Digest and always-old find the same hot data (same DB pressure)...
    assert digest["db_reads"] == always["db_reads"]
    # ...but the digest wastes (near) zero probes on cold keys, while
    # always-old probes every remapped cold key (~1/6 of them here).
    assert digest["false_pos"] <= 2
    assert always["false_pos"] >= COLD_KEYS // 12
    # Without the old-server path, every remapped hot key hits the DB.
    assert straight["db_reads"] > digest["db_reads"] + WARM_KEYS // 12
    assert straight["hit_old"] == 0
