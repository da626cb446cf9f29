"""Fault smoke — availability and tail latency of a kill, on real sockets.

The one real-socket fault run (every other fault test runs the same
stack on the seeded virtual network of ``tests/simnet``): a live
frontend (real TCP, real memcached protocol) serves a fixed request mix
against three ``MemcachedServer``\\ s.  Scenarios:

* ``baseline`` — nothing fails (the degraded machinery must cost nothing
  when nothing fails);
* ``killed_mid_transition`` — a smooth scale-down starts, then server 0
  is powered off mid-drain with :meth:`MemcachedServer.stop`: the
  listener closes, open connections abort and every redial is refused.
  Its keys must degrade to the database, never to an error.

Every scenario must answer **100% of requests with the correct value**
(the acceptance bar: degraded, never wrong, never raising).  Results are
printed as a table and written to ``BENCH_fault.json`` (availability,
p99, degraded counters per scenario).  ``PROTEUS_BENCH_ROUNDS`` (default
3) sets the repeat count — latency is best-of-rounds, availability must
hold on every round; ``--rounds 1`` is the smoke mode.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from pathlib import Path
from typing import Dict, List

from benchmarks.conftest import fmt_row
from repro.bloom.config import optimal_config
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import ResiliencePolicy

ROUNDS = max(1, int(os.environ.get("PROTEUS_BENCH_ROUNDS", "3")))
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_fault.json"

NUM_SERVERS = 3
NUM_KEYS = 48
SINGLE_REQUESTS = 72  # fetch calls (pages of one key)
BATCH_REQUESTS = 4  # fetch_many calls of BATCH_SIZE keys each
BATCH_SIZE = 12
BLOOM = optimal_config(2000)


def _value(key: str) -> bytes:
    return f"authoritative:{key}".encode()


async def _database(key: str) -> bytes:
    return _value(key)


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


async def _run_scenario(name: str) -> Dict[str, object]:
    """One scenario run: returns availability/latency/degraded numbers."""
    servers = [MemcachedServer(bloom_config=BLOOM) for _ in range(NUM_SERVERS)]
    for server in servers:
        await server.start()
    frontend = AsyncProteusFrontend(
        [("127.0.0.1", server.port) for server in servers],
        BLOOM,
        _database,
        resilience=ResiliencePolicy.aggressive(op_timeout=0.2),
    )
    keys = [f"page:{i}" for i in range(NUM_KEYS)]
    latencies: List[float] = []
    correct = 0
    total = 0
    try:
        async with frontend:
            # Warm the cache while everything is healthy.
            await frontend.fetch_many(keys)

            if name == "killed_mid_transition":
                # Digest broadcast succeeds, then an old owner dies
                # mid-drain: digest hits on it must degrade, not fail.
                await frontend.scale_to(NUM_SERVERS - 1, ttl=30.0)
                await servers[0].stop()

            for i in range(SINGLE_REQUESTS):
                key = keys[i % NUM_KEYS]
                start = time.perf_counter()
                result = await frontend.fetch(key)
                latencies.append(time.perf_counter() - start)
                total += 1
                correct += result.value == _value(key)
            for i in range(BATCH_REQUESTS):
                batch = keys[i * BATCH_SIZE: (i + 1) * BATCH_SIZE]
                start = time.perf_counter()
                results = await frontend.fetch_many(batch)
                latencies.append(time.perf_counter() - start)
                total += len(batch)
                correct += sum(
                    results[key].value == _value(key) for key in batch
                )
            stats = frontend.stats
            return {
                "requests": total,
                "availability": correct / total,
                "p99_ms": round(1000 * _percentile(latencies, 0.99), 3),
                "mean_ms": round(
                    1000 * sum(latencies) / len(latencies), 3
                ),
                "degraded_events": dict(stats.degraded),
                "db_fraction": round(stats.database_fraction, 4),
                "breaker_trips": sum(
                    b.trips for b in frontend.transport.breakers
                ),
                "reconnects": frontend.transport.reconnects,
            }
    finally:
        for server in servers:
            await server.stop()


SCENARIOS = ["baseline", "killed_mid_transition"]


def run_bench(rounds: int) -> Dict[str, Dict[str, object]]:
    """All scenarios, *rounds* times each; latency is best-of-rounds and
    availability must be perfect on **every** round."""
    report: Dict[str, Dict[str, object]] = {}
    for name in SCENARIOS:
        best: Dict[str, object] = {}
        for _ in range(rounds):
            run = asyncio.run(_run_scenario(name))
            assert run["availability"] == 1.0, (
                f"{name}: only {run['availability']:.4f} of requests "
                f"answered correctly"
            )
            if not best or run["p99_ms"] < best["p99_ms"]:
                best = run
        report[name] = best
    return report


def print_report(report: Dict[str, Dict[str, object]]) -> None:
    print("\nFault-tolerance scenarios (live tier over loopback TCP):")
    print(fmt_row("scenario", ["avail", "p99ms", "meanms", "dbfrac",
                               "degr", "trips"], width=10))
    for name, row in report.items():
        print(fmt_row(name[:16], [
            row["availability"],
            row["p99_ms"],
            row["mean_ms"],
            row["db_fraction"],
            sum(row["degraded_events"].values()),
            row["breaker_trips"],
        ], width=10))


def write_report(report: Dict[str, Dict[str, object]], rounds: int) -> None:
    payload = {
        "rounds": rounds,
        "num_servers": NUM_SERVERS,
        "num_keys": NUM_KEYS,
        "requests_per_round": SINGLE_REQUESTS + BATCH_REQUESTS * BATCH_SIZE,
        "policy": "ResiliencePolicy.aggressive(op_timeout=0.2)",
        "scenarios": report,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {JSON_PATH.name}")


def test_fault_tolerance_scenarios():
    """Every scenario answers 100% of requests correctly (asserted inside
    :func:`run_bench`) and the degraded paths actually engage."""
    report = run_bench(ROUNDS)
    print_report(report)
    # The fault scenarios must exercise the degraded machinery...
    killed = report["killed_mid_transition"]
    assert sum(killed["degraded_events"].values()) > 0
    assert killed["breaker_trips"] >= 1
    # ...and the baseline must not.
    assert sum(report["baseline"]["degraded_events"].values()) == 0
    assert report["baseline"]["breaker_trips"] == 0
    write_report(report, ROUNDS)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=ROUNDS,
        help="repetitions per scenario (latency is best-of-rounds)",
    )
    args = parser.parse_args()
    report = run_bench(max(1, args.rounds))
    print_report(report)
    write_report(report, max(1, args.rounds))


if __name__ == "__main__":
    main()
