#!/usr/bin/env python3
"""Quickstart — Proteus in five minutes.

Builds a 6-server cache tier with the paper's deterministic virtual-node
placement, shows the three guarantees in action:

1. exact load balance at every fleet size,
2. minimal data migration on a provisioning change,
3. a smooth scale-down where the database never notices.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro import (
    CacheCluster,
    DatabaseCluster,
    FetchPath,
    ProteusRouter,
    WebServer,
    migration_lower_bound,
    theoretical_min_vnodes,
)


def main() -> None:
    num_servers = 6
    router = ProteusRouter(num_servers)
    print(f"Proteus placement for N={num_servers}: "
          f"{router.placement.num_vnodes} virtual nodes "
          f"(Theorem 1 bound: {theoretical_min_vnodes(num_servers)})")

    # 1. Balance: route 60k keys at several fleet sizes.
    keys = [f"page:{i}" for i in range(60_000)]
    for active in (6, 4, 2):
        counts = Counter(router.route(key, active) for key in keys)
        values = [counts[s] for s in range(active)]
        print(f"  n={active}: per-server load {values} "
              f"(min/max = {min(values) / max(values):.3f})")

    # 2. Minimal migration: scale 6 -> 5.
    moved = sum(1 for key in keys if router.route(key, 6) != router.route(key, 5))
    print(f"Scale 6->5 remaps {moved / len(keys):.3%} of keys "
          f"(lower bound {float(migration_lower_bound(6, 5)):.3%})")

    # 3. Smooth transition: the database tier never notices.
    cache = CacheCluster(router, capacity_bytes=4096 * 20_000)
    database = DatabaseCluster()
    web = WebServer(0, cache, database)

    clock = 0.0
    hot = [f"page:{i}" for i in range(500)]
    for key in hot:  # warm the tier
        web.fetch(key, clock)
        clock += 0.01
    db_reads_before = database.total_requests()

    cache.scale_to(5, clock, 60.0)  # digests broadcast, server 5 drains
    outcomes = Counter(web.fetch(key, clock + 1.0).path for key in hot)
    print("After the scale-down, the same 500 hot keys were served via:")
    for path, count in sorted(outcomes.items(), key=lambda kv: -kv[1]):
        print(f"  {path.value:>18s}: {count}")
    extra_db = database.total_requests() - db_reads_before
    print(f"Extra database reads caused by the transition: {extra_db}")
    assert extra_db == 0, "smooth transition must not touch the DB for hot keys"
    assert outcomes[FetchPath.HIT_OLD] > 0

    cache.finalize_expired(clock + 100.0)  # TTL passed: server 5 powers off
    print(f"Server 5 state after the TTL window: "
          f"{cache.server(5).state.value}")


if __name__ == "__main__":
    main()
