"""Sim-vs-live health parity: one FaultSchedule, two monitors.

The same scripted fault is realized on both substrates — crash events in
the simulator, plans the virtual network replays against the live tier
(:mod:`tests.simnet`) — and a :class:`ClusterHealthMonitor` built over
each (the sim's crash set, the live tier's :func:`open_circuits`) must
produce *equivalent* ``HealthSnapshot`` series:
identical request/degraded/remap windows, and the same unhealthy-server
verdict, even though the sim learns it from the crash oracle and the live
tier from tripped breakers.  This is what lets the closed-loop controller
be developed against the simulator and deployed against the live tier.

The control plane's :mod:`repro.obs` timeline has the same parity: one
resize script on each substrate records the same events, timestamps
aside, and no fetch records one.
"""

import asyncio

from repro import obs
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.provisioning.health import ClusterHealthMonitor, open_circuits
from repro.resilience import FaultPlan, FaultSchedule
from repro.sim.latency import Constant
from repro.web.frontend import WebServer
from tests.conftest import healthy
from tests.simnet import BLOOM, cluster, run, value_of

N_SERVERS = 3
KEYS = [f"page:{i}" for i in range(24)]
FAULT_AT = 1.0
#: the drain window of every transition, on both substrates
TTL = 60.0


def schedule_killing(server_id):
    schedule = FaultSchedule()
    schedule.add(FAULT_AT, server_id, FaultPlan.killed())
    return schedule


def sim_stack():
    """The simulated cache tier and one web server over it."""
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
    return cache, web


def run_sim(schedule, transition_to=None):
    """Warm, fault, refetch — observing health before and after."""
    cache, web = sim_stack()
    monitor = ClusterHealthMonitor(
        [web.stats], cache.failed_servers, cache.transitions.in_transition
    )
    now = 0.0
    for key in KEYS:
        web.fetch(key, now=now)
        now += 0.01
    before = monitor.observe(now)
    if transition_to is not None:
        cache.scale_to(transition_to, FAULT_AT, TTL)
    for fault in schedule.crashes():
        cache.fail_server(fault.server_id, fault.at)
    now = FAULT_AT + 0.1
    for key in KEYS:
        web.fetch(key, now=now)
        now += 0.01
    after = monitor.observe(now)
    return before, after


async def run_live(schedule, transition_to=None):
    """The same script against the live tier on the virtual network,
    refetching at the sim's refetch time."""
    async with cluster(N_SERVERS) as stack:
        web = stack.web
        monitor = ClusterHealthMonitor(
            [web.stats],
            lambda: open_circuits(web.transport.breakers),
            web._manager.in_transition,
        )
        for key in KEYS:
            await web.fetch(key)
        before = monitor.observe(web._clock())
        if transition_to is not None:
            await web.scale_to(transition_to, ttl=TTL)
        stack.replay(schedule)
        await asyncio.sleep(FAULT_AT + 0.1 - stack.loop.time())
        for key in KEYS:
            result = await web.fetch(key)
            assert result.value == value_of(key)
        after = monitor.observe(web._clock())
        return before, after


def assert_window_parity(sim_snap, live_snap):
    """The engine-derived window facts must match exactly."""
    assert sim_snap.requests == live_snap.requests
    assert sim_snap.degraded == live_snap.degraded
    assert sim_snap.remap_misses == live_snap.remap_misses


class TestHealthParity:
    def test_killed_owner_same_verdict(self):
        schedule = schedule_killing(0)
        sim_before, sim_after = run_sim(schedule)
        live_before, live_after = run(run_live(schedule))

        assert_window_parity(sim_before, live_before)
        assert healthy(sim_before) and healthy(live_before)

        assert_window_parity(sim_after, live_after)
        # Substrate-specific detection, identical verdict: the simulator's
        # crash oracle names the server, the live tier's breaker trips on it.
        assert sim_after.unhealthy_servers == frozenset({0})
        assert live_after.unhealthy_servers == frozenset({0})
        assert not healthy(sim_after) and not healthy(live_after)

    def test_mid_transition_windows_agree(self):
        # Kill the retiring old owner: digest hits on moved keys degrade
        # to the database (no old-owner pull completes), so both monitors
        # must agree the remap window is *empty* while still flagging the
        # open drain window and the lost server.
        schedule = schedule_killing(2)
        _, sim_after = run_sim(schedule, transition_to=2)
        _, live_after = run(run_live(schedule, transition_to=2))
        assert_window_parity(sim_after, live_after)
        assert sim_after.in_transition and live_after.in_transition
        assert sim_after.remap_misses == 0
        assert sim_after.unhealthy_servers == frozenset({2})
        assert live_after.unhealthy_servers == frozenset({2})

    def test_faultless_transition_remap_signal_agrees(self):
        # A healthy 3 -> 2 transition: moved keys *do* pull from the old
        # owner, and both monitors count the same remap-miss window.
        schedule = FaultSchedule()
        _, sim_after = run_sim(schedule, transition_to=2)
        _, live_after = run(run_live(schedule, transition_to=2))
        assert_window_parity(sim_after, live_after)
        assert sim_after.remap_misses > 0
        assert sim_after.in_transition and live_after.in_transition

    def test_benign_schedule_stays_healthy(self):
        schedule = FaultSchedule()
        _, sim_after = run_sim(schedule)
        _, live_after = run(run_live(schedule))
        assert_window_parity(sim_after, live_after)
        assert healthy(sim_after) and healthy(live_after)
        assert sim_after.unhealthy_servers == frozenset()
        assert live_after.unhealthy_servers == frozenset()


# ------------------------------------------------------------- timelines


def sim_timeline(sizes, rounds):
    """Warm, then scale to each of *sizes* in turn, fetching every key
    *rounds* times once each drain window has passed."""
    cache, web = sim_stack()
    now = 0.0

    def fetch_rounds(now):
        for _ in range(rounds):
            for key in KEYS:
                web.fetch(key, now=now)
                now += 0.01
        return now

    with obs.recording() as timeline:
        now = fetch_rounds(now)
        for n in sizes:
            cache.scale_to(n, now, TTL)
            now = fetch_rounds(now + TTL + 0.1)
    return timeline


async def live_timeline(sizes, rounds):
    """:func:`sim_timeline`'s script against the live tier."""
    async with cluster(N_SERVERS) as stack:
        web = stack.web

        async def fetch_rounds():
            for _ in range(rounds):
                for key in KEYS:
                    assert (await web.fetch(key)).value == value_of(key)

        with obs.recording() as timeline:
            await fetch_rounds()
            for n in sizes:
                await web.scale_to(n, ttl=TTL)
                await asyncio.sleep(TTL + 0.1)
                await fetch_rounds()
        return timeline


def decisions(timeline):
    return [(event.kind, event.fields) for event in timeline.events]


class TestTimelineParity:
    def test_a_resize_script_records_the_same_events(self):
        sim = decisions(sim_timeline((2, 3), rounds=1))
        live = decisions(run(live_timeline((2, 3), rounds=1)))
        assert sim == live
        assert [kind for kind, _ in sim] == [
            "transition.begin", "transition.end",
        ] * 2
        assert sim[0][1] == {
            "n_old": 3, "n_new": 2, "smooth": True, "digests": [2],
        }
        assert sim[1][1] == {"n_old": 3, "n_new": 2, "powered_off": [2]}
        assert sim[3][1] == {"n_old": 2, "n_new": 3, "powered_off": []}

    def test_no_event_per_request(self):
        # A healthy run without a resize records nothing, and more
        # fetches record no more events.
        assert sim_timeline((), rounds=3).events == []
        assert run(live_timeline((), rounds=3)).events == []
        for record in (
            lambda rounds: sim_timeline((2, 3), rounds),
            lambda rounds: run(live_timeline((2, 3), rounds)),
        ):
            assert len(record(1).events) == len(record(3).events) == 4
