"""End-to-end flows across packages (no reduced-claim scaffolding)."""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.core.transition import TransitionManager
from repro.database.cluster import DatabaseCluster
from repro.experiments.testbed import SimTestbed, Sizing
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer
from repro.provisioning.controller import run_feedback_loop
from repro.provisioning.policies import limit_step_size
from repro.web.frontend import FetchPath, WebServer
from repro.workload.trace import slot_counts
from repro.workload.wikipedia import generate_trace

CFG = optimal_config(2000)


class TestFullProvisioningPipeline:
    """Trace -> feedback loop -> schedule -> testbed -> cluster, like the
    paper's end-to-end methodology (Fig. 4 then Figs. 9-11)."""

    def test_trace_to_schedule_to_actuation(self):
        trace = generate_trace(
            duration=400.0, mean_rate=300.0, num_pages=2000,
            peak_to_valley=2.0, seed=31,
        )
        counts = slot_counts(trace, slot_seconds=50.0, num_slots=8)
        rates = [c / 50.0 for c in counts]
        schedule = limit_step_size(
            run_feedback_loop(rates, num_servers=8, per_server_rate=60.0,
                              slot_seconds=50.0)
        )
        assert schedule.num_slots == 8
        assert max(schedule.counts) > min(schedule.counts)  # tracks diurnal

        testbed = SimTestbed(
            Sizing(seed=31, catalogue_size=500,
                   cache_capacity_bytes=4096 * 500, pages_per_user=10),
            ProteusRouter(8), ttl=10.0,
        )
        report = testbed.run(
            [4] * schedule.num_slots, schedule.slot_seconds, schedule
        )
        assert testbed.cache.active_count == schedule.counts[-1]
        n = schedule.counts
        changes = sum(old != new for old, new in zip(n, n[1:]))
        assert len(report.transitions) == changes


class TestMultiWebServerConsistency:
    def test_independent_web_servers_agree_on_placement(self):
        """Section I objective 3: decisions must be consistent across web
        servers, with no coordination."""
        cache = CacheCluster(
            ProteusRouter(5), capacity_bytes=4096 * 500, bloom_config=CFG
        )
        db = DatabaseCluster(2)
        webs = [WebServer(i, cache, db, seed=i) for i in range(4)]
        # Each web server writes some keys; every other web server must hit.
        t = 0.0
        keys = [f"page:{i}" for i in range(40)]
        for i, key in enumerate(keys):
            webs[i % 4].fetch(key, t)
            t += 0.01
        for key in keys:
            for web in webs:
                result = web.fetch(key, t)
                assert result.path is FetchPath.HIT_NEW
                t += 0.01


class TestSimAndNetAgree:
    """The asyncio memcached server and the in-process cache server share
    store+digest code; a transition decision computed from TCP-fetched
    digests must match one computed in-process."""

    def test_digest_over_tcp_equals_in_process_snapshot(self):
        async def body():
            server = MemcachedServer(bloom_config=CFG)
            await server.start()
            try:
                async with MemcachedClient("127.0.0.1", server.port) as client:
                    for i in range(100):
                        await client.set(f"page:{i}", b"x")
                    await client.snapshot_digest()
                    over_tcp = await client.fetch_digest(
                        CFG.num_counters, CFG.num_hashes
                    )
            finally:
                await server.stop()
            in_process = server.digest.snapshot()
            probes = [f"page:{i}" for i in range(200)]
            assert [k in over_tcp for k in probes] == [
                k in in_process for k in probes
            ]
            return over_tcp

        digest = asyncio.run(body())
        # And that digest drives a TransitionManager exactly like a local one.
        mgr = TransitionManager(4, 4)
        transition = mgr.begin(3, 0.0, 30.0, {3: digest})
        assert transition.digest_hit(3, "page:5")
        assert not transition.digest_hit(3, "page:150")


class TestColdStartRecovery:
    def test_scale_up_after_long_off_period_is_cold_but_correct(self):
        cache = CacheCluster(
            ProteusRouter(4), capacity_bytes=4096 * 500,
            initial_active=4, bloom_config=CFG,
        )
        db = DatabaseCluster(2)
        web = WebServer(0, cache, db)
        t = 0.0
        for i in range(50):
            web.fetch(f"page:{i}", t)
            t += 0.01
        # down to 2, let the window close, then back up to 4
        cache.scale_to(2, t, 5.0)
        cache.finalize_expired(t + 6.0)
        t += 10.0
        cache.scale_to(4, t, 5.0)
        # servers 2,3 are cold; their keys come from old owners 0,1 via
        # digest (those still hold them) or the DB; either way values match.
        for i in range(50):
            result = web.fetch(f"page:{i}", t)
            assert result.value == db.shard_for(f"page:{i}").lookup(f"page:{i}")
            t += 0.01
