"""Sim-vs-live parity under faults: one FaultSchedule, two substrates.

The same scripted fault is realized twice — in the simulator as
crash events (via :meth:`FaultSchedule.crashes`) and against the
live tier as plans the virtual network replays (:mod:`tests.simnet`) —
and both sides must report the *same* engine accounting: identical
``FetchStats.counts`` per path, identical ``FetchStats.degraded`` event
counters, and the same per-result ``FetchResult.degraded`` flag for every
post-fault fetch.  This is the fault-injection extension of the repo's
sim-vs-live retrieval parity suite.
"""

import asyncio

from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.resilience import FaultPlan, FaultSchedule
from repro.sim.latency import Constant
from repro.web.frontend import WebServer
from tests.simnet import BLOOM, cluster, run, value_of

N_SERVERS = 3
KEYS = [f"page:{i}" for i in range(24)]
FAULT_AT = 1.0


def schedule_killing(server_id):
    schedule = FaultSchedule()
    schedule.add(FAULT_AT, server_id, FaultPlan.killed())
    return schedule


def run_sim(schedule, transition_to=None):
    """Warm, apply *schedule* as crash events, refetch; return the stats
    and each post-fault fetch's ``degraded`` flag."""
    cache = CacheCluster(
        ProteusRouter(N_SERVERS),
        capacity_bytes=4096 * 2000,
        bloom_config=BLOOM,
    )
    db = DatabaseCluster(2, service_model=Constant(0.0001))
    web = WebServer(
        0, cache, db,
        cache_latency=Constant(0.0001), web_overhead=Constant(0.0001),
    )
    now = 0.0
    for key in KEYS:
        web.fetch(key, now=now)
        now += 0.01
    if transition_to is not None:
        cache.scale_to(transition_to, FAULT_AT, 60.0)
    for fault in schedule.crashes():
        cache.fail_server(fault.server_id, fault.at)
    now = FAULT_AT + 0.1
    degraded = {}
    for key in KEYS:
        degraded[key] = web.fetch(key, now=now).degraded
        now += 0.01
    return web.stats, degraded


async def run_live(schedule, transition_to=None):
    """The same script against the live tier on the virtual network: the
    schedule is replayed on its own clock, then the refetch starts at the
    sim's refetch time."""
    async with cluster(N_SERVERS) as stack:
        web = stack.web
        for key in KEYS:
            await web.fetch(key)
        if transition_to is not None:
            await web.scale_to(transition_to, ttl=60.0)
        stack.replay(schedule)
        await asyncio.sleep(FAULT_AT + 0.1 - stack.loop.time())
        degraded = {}
        for key in KEYS:
            result = await web.fetch(key)
            assert result.value == value_of(key)
            degraded[key] = result.degraded
        return web.stats, degraded


def assert_parity(sim, live):
    """Both ``(stats, per-key degraded flags)`` reports agree; returns
    the shared stats and flags."""
    (sim_stats, sim_degraded), (live_stats, live_degraded) = sim, live
    assert sim_stats.counts == live_stats.counts
    assert sim_stats.degraded == live_stats.degraded
    assert sim_stats.degraded_events == live_stats.degraded_events
    assert sim_degraded == live_degraded
    return sim_stats, sim_degraded


class TestDegradedParity:
    def test_killed_owner_steady_state(self):
        # Kill server 0 after warming: its keys degrade to the database
        # (probe skipped, write-back skipped) on both substrates.
        schedule = schedule_killing(0)
        sim_stats, degraded = assert_parity(
            run_sim(schedule), run(run_live(schedule))
        )
        assert sim_stats.counts["degraded_db"] > 0
        assert sim_stats.degraded["probe_new"] > 0
        assert sim_stats.degraded["writeback"] > 0
        # Exactly the dead server's keys report a degraded fetch.
        router = ProteusRouter(N_SERVERS)
        assert degraded == {
            key: router.route(key, N_SERVERS) == 0 for key in KEYS
        }

    def test_killed_old_owner_mid_transition(self):
        # Scale 3 -> 2, then kill the retiring server: every moved key's
        # digest hit leads to a dead old owner, so the hot-copy pull
        # degrades to the database while the write-back still installs
        # the value at the healthy new owner.
        schedule = schedule_killing(2)
        sim_stats, degraded = assert_parity(
            run_sim(schedule, transition_to=2),
            run(run_live(schedule, transition_to=2)),
        )
        assert sim_stats.degraded["probe_old"] > 0
        assert sim_stats.counts["degraded_db"] > 0
        assert sum(degraded.values()) == sim_stats.counts["degraded_db"]

    def test_benign_schedule_stays_clean(self):
        # An empty schedule maps to zero crash events and benign paths:
        # both substrates must report zero degraded activity.
        schedule = FaultSchedule()
        sim_stats, degraded = assert_parity(
            run_sim(schedule), run(run_live(schedule))
        )
        assert sim_stats.degraded_events == 0
        assert not any(degraded.values())
