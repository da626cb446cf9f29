"""Microbenchmark — routing and digest-probe throughput, scalar vs. batch.

Section I objective 3 requires the load-distribution decision to be
*efficient*: it runs on every web request.  This bench measures, for each
Table II router:

* single-key ``route()`` throughput (the compiled-table fast path);
* batched ``route_many()`` throughput (one vectorized ``searchsorted``);
* digest probes: scalar ``key in filter`` vs. ``contains_many``;
* the crossover of the batch entry points a live page calls with a few
  keys — cold ``route_many`` and ``Transition.digest_hit_many`` — scalar
  against vectorized per batch size, the table
  :data:`repro.bloom.hashing.SCALAR_BATCH_MAX` is read from (printed
  only).

The speedup baseline is the *legacy* Proteus route — a fresh salted
blake2b per call plus ``HashRing.lookup`` with a per-call ``is_active``
lambda, the pre-compiled-table hot path.  Its cost is a committed
constant in work units (:data:`LEGACY_ROUTE_WU`), converted to seconds at
run time by timing :func:`benchmarks.e2e.harness.work_unit` on the same
machine, so the code it measured is gone.

All routing rows are *steady-state*: the compiled-table cache and the
salted-hash memo are warmed first, because the web tier routes the same hot
keys repeatedly (Zipf traffic is what makes a memory cache worth running).
The contenders and the work unit are timed round-robin
(:func:`_interleaved_best`) so CPU-frequency drift cannot land on one side
of a speedup ratio.

Results are printed as figure-style tables and written to
``BENCH_routing.json`` (ops/s per router, scalar vs. batch) so the perf
trajectory is tracked across PRs.  ``PROTEUS_BENCH_ROUNDS`` (default 3)
sets the timing rounds; ``make bench-smoke`` runs with 1.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from unittest import mock

import pytest

from benchmarks.conftest import fmt_row
from benchmarks.e2e.harness import work_unit
from repro.bloom import hashing
from repro.bloom.counting import CountingBloomFilter
from repro.core.router import ProteusRouter
from repro.core.transition import Transition
from repro.experiments.testbed import SCENARIOS

KEYS = [f"page:{i}" for i in range(2000)]
ROUNDS = max(1, int(os.environ.get("PROTEUS_BENCH_ROUNDS", "3")))
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_routing.json"

#: Acceptance gates (vs. the legacy per-call path, Proteus at N=40).
MIN_SCALAR_SPEEDUP = 5.0
MIN_BATCH_SPEEDUP = 20.0
#: The legacy Proteus route's cost per key at N=40, n=25, in work units:
#: the median of five best-of-5 timings of the 2000-key loop against
#: best-of-20 timings of 200 work units, taken before the code was deleted.
LEGACY_ROUTE_WU = 0.396
#: work units per timed round of the denominator
UNIT_REPS = 200


def _best_seconds(func, *args) -> float:
    """Minimum wall time of ``func(*args)`` over ``ROUNDS`` rounds."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best(callables):
    """Best-of-``ROUNDS`` wall time per callable, measured round-robin.

    The speedup gates are *ratios*; measuring the contenders in separate
    phases lets CPU-frequency drift or neighbor load land on one side of
    the ratio only.  Round-robin interleaving spreads any drift across all
    contenders, so the ratios stay stable even when absolute numbers move.
    """
    best = [float("inf")] * len(callables)
    for _ in range(ROUNDS):
        for index, func in enumerate(callables):
            start = time.perf_counter()
            func()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _route_all(router, num_active: int) -> None:
    route = router.route
    for key in KEYS:
        route(key, num_active)


def _routers(n_servers: int, n_active: int):
    """Each Table II scenario's router, with the servers it routes over
    (Static keeps every server on)."""
    return {
        spec.name: (
            spec.router_factory(n_servers),
            n_active if spec.dynamic else n_servers,
        )
        for spec in SCENARIOS
    }


@pytest.mark.parametrize("n_servers,n_active", [(10, 7), (40, 25)])
def test_routing_throughput(benchmark, n_servers, n_active):
    routers = _routers(n_servers, n_active)
    for router, active in routers.values():
        # Warm the compiled-table cache and the salted-hash memo: the bench
        # measures steady-state throughput over a hot working set, the web
        # tier's operating point.
        router.route_many(KEYS, active)
    names = list(routers)
    timings = _interleaved_best(
        [lambda: [work_unit() for _ in range(UNIT_REPS)]]
        + [
            (lambda r=router, n=active: _route_all(r, n))
            for router, active in routers.values()
        ]
        + [
            (lambda r=router, n=active: r.route_many(KEYS, n))
            for router, active in routers.values()
        ]
    )
    legacy_ops = 1.0 / (LEGACY_ROUTE_WU * timings[0] / UNIT_REPS)
    scalar_ops = {
        name: len(KEYS) / seconds
        for name, seconds in zip(names, timings[1 : 1 + len(names)])
    }
    batch_ops = {
        name: len(KEYS) / seconds
        for name, seconds in zip(names, timings[1 + len(names) :])
    }
    # The pytest-benchmark-tracked number: Proteus, the paper's router.
    benchmark.pedantic(
        _route_all, args=routers["Proteus"], rounds=ROUNDS,
        iterations=1,
    )
    print(f"\nRouting throughput, N={n_servers}, n={n_active} "
          f"(single-threaded calls/s):")
    print(fmt_row("router", list(scalar_ops), width=12))
    print(fmt_row("route ops/s", [int(v) for v in scalar_ops.values()], width=12))
    print(fmt_row("batch ops/s", [int(v) for v in batch_ops.values()], width=12))
    print(fmt_row("legacy", [int(legacy_ops)], width=12))

    # Proteus must stay within ~10x of the modulo hash (both are dominated
    # by the blake2b key hash at these fleet sizes).
    assert scalar_ops["Proteus"] > scalar_ops["Naive"] / 10.0

    if n_servers == 40:
        scalar_speedup = scalar_ops["Proteus"] / legacy_ops
        batch_speedup = batch_ops["Proteus"] / legacy_ops
        print(fmt_row("speedup", [round(scalar_speedup, 1),
                                  round(batch_speedup, 1)], width=12))
        assert scalar_speedup >= MIN_SCALAR_SPEEDUP, (
            f"compiled scalar route() is only {scalar_speedup:.1f}x the "
            f"legacy path (need >= {MIN_SCALAR_SPEEDUP}x)"
        )
        assert batch_speedup >= MIN_BATCH_SPEEDUP, (
            f"route_many is only {batch_speedup:.1f}x the legacy path "
            f"(need >= {MIN_BATCH_SPEEDUP}x)"
        )
        _write_report(n_servers, n_active, scalar_ops, batch_ops, legacy_ops)


def _digest_throughput():
    digest = CountingBloomFilter(num_counters=2 ** 16, counter_bits=4,
                                 num_hashes=4)
    digest.add_many(KEYS[::2])

    def scalar_probe_all():
        for key in KEYS:
            key in digest

    scalar_ops = len(KEYS) / _best_seconds(scalar_probe_all)
    batch_ops = len(KEYS) / _best_seconds(digest.contains_many, KEYS)
    return scalar_ops, batch_ops


def test_digest_probe_throughput():
    scalar_ops, batch_ops = _digest_throughput()
    print("\nDigest probe throughput (counting filter, l=2^16, h=4):")
    print(fmt_row("mode", ["scalar", "batch"], width=12))
    print(fmt_row("probe ops/s", [int(scalar_ops), int(batch_ops)], width=12))
    # The batch path must never regress below the scalar loop.
    assert batch_ops > scalar_ops


#: batch sizes of the crossover table
CROSSOVER_SIZES = (1, 2, 4, 8, 16, 32, 64)
#: timed calls per batch size and path; each call gets keys of its own
CROSSOVER_CALLS = 60


def _crossover():
    """Median us per call of cold ``route_many`` and of ``digest_hit_many``
    at each of :data:`CROSSOVER_SIZES`, scalar against vectorized.

    The routing keys are new to the epoch's table but their ring hashes
    are memoized, as in a 3 -> 2 drain window: the old epoch hashed them.
    The digest keys are new to the hash memo (the node built the digest
    key by key), as a missed key is checked about once.  Scalar and
    vectorized calls alternate, so drift lands on both columns.
    """
    router = ProteusRouter(3)
    table = router.ring.compiled_for(2)
    router.route_many([f"warm:{i}" for i in range(256)], 2)  # a used table
    counting = CountingBloomFilter(num_counters=2 ** 16, counter_bits=4,
                                   num_hashes=4)
    batches = {}
    for size in CROSSOVER_SIZES:
        batches[size] = [
            [f"cold:{size}:{call}:{i}" for i in range(size)]
            for call in range(CROSSOVER_CALLS)
        ]
        for batch in batches[size]:
            router.route_many(batch, 3)  # the old epoch hashed them
            for key in batch[::2]:
                counting.add(key)
    transition = Transition(3, 2, 0.0, 10.0, {2: counting.snapshot()})
    # The scalar loop takes a batch no longer than the constant; 0 sends
    # every batch to numpy.
    bounds = {"scalar": max(CROSSOVER_SIZES), "vector": 0}
    rows = {}
    for size, calls in batches.items():
        times = {(op, path): [] for op in ("route", "digest") for path in bounds}
        for batch in calls:
            for path, bound in bounds.items():
                with mock.patch.object(hashing, "SCALAR_BATCH_MAX", bound):
                    start = time.perf_counter()
                    router.route_many(batch, 2)
                    middle = time.perf_counter()
                    transition.digest_hit_many(2, batch)
                    end = time.perf_counter()
                times["route", path].append(middle - start)
                times["digest", path].append(end - middle)
                for key in batch:  # cold again for the other path
                    table.owners_by_key[0].pop(key)
        rows[size] = {
            name: statistics.median(spans) * 1e6
            for name, spans in times.items()
        }
    return rows


def test_scalar_batch_crossover():
    rows = _crossover()
    print(f"\nShort-batch crossover, us per call (SCALAR_BATCH_MAX = "
          f"{hashing.SCALAR_BATCH_MAX}):")
    print(fmt_row("keys", ["route sc", "route np", "digest sc", "digest np"],
                  width=11))
    for size, row in rows.items():
        print(fmt_row(str(size), [
            round(row["route", "scalar"], 1), round(row["route", "vector"], 1),
            round(row["digest", "scalar"], 1),
            round(row["digest", "vector"], 1),
        ], width=11, precision=1))


def _write_report(n_servers, n_active, scalar_ops, batch_ops, legacy_ops):
    digest_scalar, digest_batch = _digest_throughput()
    report = {
        "n_servers": n_servers,
        "n_active": n_active,
        "num_keys": len(KEYS),
        "rounds": ROUNDS,
        "measurement": "steady-state (warm compiled tables + hash memo), "
                       "interleaved best-of-rounds",
        "routers": {
            name: {
                "route_ops_per_s": round(scalar_ops[name], 1),
                "route_many_ops_per_s": round(batch_ops[name], 1),
            }
            for name in scalar_ops
        },
        "legacy_proteus_route_wu": LEGACY_ROUTE_WU,
        "legacy_proteus_route_ops_per_s": round(legacy_ops, 1),
        "digest_probe": {
            "scalar_ops_per_s": round(digest_scalar, 1),
            "batch_ops_per_s": round(digest_batch, 1),
        },
        "speedup_vs_legacy": {
            "proteus_route": round(scalar_ops["Proteus"] / legacy_ops, 2),
            "proteus_route_many": round(batch_ops["Proteus"] / legacy_ops, 2),
        },
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {JSON_PATH.name}")
