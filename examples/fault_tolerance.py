#!/usr/bin/env python3
"""Fault tolerance — Section III-E's replica rings surviving a crash.

Builds the same cache tier twice — once unreplicated, once with r=2 replica
rings sharing the Proteus placement — warms both, crashes the same server,
and compares how many reads fall through to the database.  Also verifies
the Eq. 3 conflict probability against measurement.

Run:  python examples/fault_tolerance.py
"""

from repro import (
    CacheCluster,
    DatabaseCluster,
    ProteusRouter,
    WebServer,
)
from repro.core.replication import (
    empirical_conflict_rate,
    no_conflict_probability,
)

NUM_SERVERS = 8
HOT_KEYS = 800


def run(replicas: int) -> dict:
    router = ProteusRouter(NUM_SERVERS, replicas=replicas)
    cache = CacheCluster(router, capacity_bytes=4096 * 20_000)
    database = DatabaseCluster()
    web = WebServer(0, cache, database)

    clock = 0.0
    keys = [f"page:{i}" for i in range(HOT_KEYS)]
    for key in keys:  # warm
        web.fetch(key, clock)
        clock += 0.01

    victim = 0
    owned = sum(1 for k in keys if router.route(k, NUM_SERVERS) == victim)
    before = database.total_requests()
    cache.fail_server(victim, now=clock)

    for key in keys:  # re-read everything after the crash
        web.fetch(key, clock + 1.0)
        clock += 0.01
    return {
        "replicas": replicas,
        "victim_owned": owned,
        "db_reads": database.total_requests() - before,
        "failovers": web.stats.failovers,
    }


def main() -> None:
    print(f"Crashing 1 of {NUM_SERVERS} cache servers, "
          f"then re-reading {HOT_KEYS} hot keys:\n")
    for replicas in (1, 2, 3):
        row = run(replicas)
        print(f"  r={row['replicas']}: victim owned {row['victim_owned']} keys"
              f" -> {row['db_reads']} DB reads, "
              f"{row['failovers']} replica failovers")

    print("\nEq. 3 — probability all replicas land on distinct servers "
          f"(n={NUM_SERVERS}):")
    router = ProteusRouter(NUM_SERVERS, replicas=2)
    measured = 1.0 - empirical_conflict_rate(router, NUM_SERVERS)
    predicted = no_conflict_probability(2, NUM_SERVERS)
    print(f"  r=2: predicted {predicted:.3f}, measured {measured:.3f}")
    print("\nWith r>=2, a crash costs only the conflicted keys "
          "(two replicas on one server); everything else fails over.")


if __name__ == "__main__":
    main()
