"""Hot-key storm bench — the armor's load-flattening gate.

A Zipf(alpha=1.2) head-key storm hits a replicated cache tier while a
smooth scale-down drains two servers: the worst case for per-server load
concentration (the head keys' owners soak the storm exactly when the
fleet is shrinking).  Two scenarios run the **same** seeded request
schedule:

* ``baseline`` — plain Algorithm 2 over two replica rings;
* ``armored`` — ``hot_key_cache`` on: sketch-elected keys are served from
  the frontend-local cache, TTL-bounded; every other read keeps the
  engine's one probe order (the plan's ring order).

Gates (the reproduction of DistCache's provable-flattening claim on top
of Proteus transitions):

* every request is answered with a value in both scenarios;
* the armored peak per-server cache load is at least **2x** lower than
  the baseline's;
* the armored p99 latency does not regress against the baseline.

Results go to ``BENCH_hotkey.json``.  ``--check`` is the CI ratchet: it
re-runs the bench and fails (exit 1) if the armored peak-to-average
ratio regressed more than 10% against the committed JSON.
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
from repro.bloom.config import optimal_config  # noqa: E402
from repro.cache.cluster import CacheCluster  # noqa: E402
from repro.core.metrics import peak_to_average  # noqa: E402
from repro.core.retrieval import FetchPath, RetrievalConfig  # noqa: E402
from repro.core.router import ProteusRouter  # noqa: E402
from repro.database.cluster import DatabaseCluster  # noqa: E402
from repro.sim.latency import Constant  # noqa: E402
from repro.web.frontend import WebServer  # noqa: E402
from repro.workload.zipf import ZipfSampler  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_hotkey.json"

NUM_SERVERS = 6
ACTIVE_AFTER = 4          # the mid-storm smooth scale-down target
REPLICAS = 2
CATALOGUE = 400
ALPHA = 1.2
REQUESTS = 6000
DT = 0.002                # request inter-arrival (sim seconds)
HOT_TTL = 0.05            # local-copy staleness bound (25 requests)
DRAIN_TTL = 2.0           # transition drain window
SEED = 7

RATCHET_TOLERANCE = 0.10  # --check fails beyond +10% peak-to-average


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _schedule() -> List[str]:
    """The seeded request schedule both scenarios replay verbatim."""
    sampler = ZipfSampler(CATALOGUE, alpha=ALPHA, seed=SEED)
    return [f"page:{item}" for item in sampler.sample_many(REQUESTS)]


def run_scenario(armored: bool) -> Dict[str, object]:
    router = ProteusRouter(NUM_SERVERS, 2 ** 20, replicas=REPLICAS)
    cluster = CacheCluster(router, bloom_config=optimal_config(CATALOGUE))
    database = DatabaseCluster(4, service_model=Constant(0.002), seed=SEED)
    config = RetrievalConfig(
        hot_key_cache=armored, hot_key_ttl=HOT_TTL
    )
    web = WebServer(0, cluster, database, seed=SEED, config=config)

    # Warm phase: install the whole catalogue (no database involved) so
    # the storm measures load distribution, not cold-start misses.
    now = 0.0
    for item in range(CATALOGUE):
        web.put(f"page:{item}", f"cached:{item}", now)

    warm_counts = cluster.per_server_requests()
    latencies: List[float] = []
    local_hits = 0
    answered = 0
    scaled = False
    for index, key in enumerate(_schedule()):
        if not scaled and index == REQUESTS // 2:
            cluster.scale_to(ACTIVE_AFTER, now, DRAIN_TTL)  # storm rides the drain
            scaled = True
        result = web.fetch(key, now)
        latencies.append(result.latency)
        local_hits += result.path is FetchPath.HIT_LOCAL
        answered += result.value is not None
        now += DT
    cluster.finalize_expired(now)

    storm_counts = [
        total - warm
        for total, warm in zip(cluster.per_server_requests(), warm_counts)
    ]
    return {
        "requests": REQUESTS,
        "answered": answered,
        "local_hits": local_hits,
        "per_server_requests": storm_counts,
        "peak_requests": max(storm_counts),
        "peak_to_average": round(peak_to_average(storm_counts), 4),
        "p99_ms": round(1000 * _percentile(latencies, 0.99), 3),
        "mean_ms": round(1000 * sum(latencies) / len(latencies), 3),
        "database_reads": web.stats.database_reads,
    }


def run_bench() -> Dict[str, object]:
    baseline = run_scenario(armored=False)
    armored = run_scenario(armored=True)
    for name, row in (("baseline", baseline), ("armored", armored)):
        assert row["answered"] == row["requests"], (
            f"{name}: only {row['answered']}/{row['requests']} answered"
        )
    peak_reduction = baseline["peak_requests"] / max(
        1, armored["peak_requests"]
    )
    p2a_reduction = baseline["peak_to_average"] / armored["peak_to_average"]
    assert peak_reduction >= 2.0, (
        f"armored peak load only {peak_reduction:.2f}x below baseline "
        f"(gate: >= 2x) — {baseline['peak_requests']} vs "
        f"{armored['peak_requests']} requests on the hottest server"
    )
    assert armored["p99_ms"] <= 1.1 * baseline["p99_ms"], (
        f"armored p99 {armored['p99_ms']}ms regressed past baseline "
        f"{baseline['p99_ms']}ms"
    )
    return {
        "alpha": ALPHA,
        "catalogue": CATALOGUE,
        "requests": REQUESTS,
        "num_servers": NUM_SERVERS,
        "scale_down_to": ACTIVE_AFTER,
        "replicas": REPLICAS,
        "hot_key_ttl": HOT_TTL,
        "peak_reduction": round(peak_reduction, 3),
        "peak_to_average_reduction": round(p2a_reduction, 3),
        "scenarios": {"baseline": baseline, "armored": armored},
    }


def print_report(report: Dict[str, object]) -> None:
    print(f"\nHot-key storm (Zipf a={ALPHA}, scale-down mid-storm):")
    print(fmt_row("scenario", ["peak", "p2a", "p99ms", "local", "dbread"],
                  width=10))
    for name, row in report["scenarios"].items():
        print(fmt_row(name, [
            row["peak_requests"],
            row["peak_to_average"],
            row["p99_ms"],
            row["local_hits"],
            row["database_reads"],
        ], width=10))
    print(f"peak-load reduction: {report['peak_reduction']}x "
          f"(gate >= 2x); peak-to-average reduction: "
          f"{report['peak_to_average_reduction']}x")


def check_ratchet(report: Dict[str, object]) -> int:
    """CI ratchet: armored peak-to-average must not regress >10%."""
    committed = _ratchet.load_committed(JSON_PATH)
    if committed is None:
        return 1
    old = committed["scenarios"]["armored"]["peak_to_average"]
    new = report["scenarios"]["armored"]["peak_to_average"]
    ok = _ratchet.check(
        "armored peak-to-average", new, old, old * (1 + RATCHET_TOLERANCE),
        better="lower", digits=4,
    )
    return 0 if ok else 1


def test_hotkey_storm_flattens_load():
    """The armored tier answers everything and flattens the storm >= 2x
    (asserted inside :func:`run_bench`)."""
    report = run_bench()
    print_report(report)
    armored = report["scenarios"]["armored"]
    assert armored["local_hits"] > 0, "hot-key cache never engaged"
    _ratchet.write_report(JSON_PATH, report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="ratchet mode: fail if armored peak-to-average regressed "
             f">{int(100 * RATCHET_TOLERANCE)}%% vs the committed "
             "BENCH_hotkey.json (the file is not rewritten)",
    )
    args = parser.parse_args()
    report = run_bench()
    print_report(report)
    if args.check:
        return check_ratchet(report)
    _ratchet.write_report(JSON_PATH, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
