"""Cross-cutting tests: error hierarchy, stress shapes, small gaps."""

import asyncio

import numpy as np
import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_library_errors_share_a_root(self):
        leaf_classes = [
            errors.ConfigurationError, errors.PlacementError,
            errors.RoutingError, errors.TransitionError, errors.CacheError,
            errors.CapacityError, errors.DigestError,
            errors.ProtocolError, errors.SimulationError,
            errors.ProvisioningError,
        ]
        for cls in leaf_classes:
            assert issubclass(cls, errors.ProteusError)

    def test_one_handler_catches_everything(self):
        from repro.core.router import NaiveRouter

        try:
            NaiveRouter(4).route("k", 9)
        except errors.ProteusError as exc:
            assert "num_active" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected a ProteusError")


class TestEventLoopStress:
    def test_ten_thousand_interleaved_events(self):
        from repro.sim.events import EventLoop

        loop = EventLoop()
        fired = []
        for i in range(10_000):
            loop.schedule_at(float(i % 100), fired.append, i)
        loop.run_until(100.0)
        assert len(fired) == 10_000
        # time order respected, ties in scheduling order
        assert fired == sorted(fired, key=lambda i: (i % 100, i))


class TestZipfExtremes:
    def test_alpha_above_one(self):
        from repro.workload.zipf import ZipfSampler

        sampler = ZipfSampler(10_000, alpha=1.5, seed=8)
        draws = sampler.sample_many(20_000)
        head = np.isin(draws, sampler._perm[:10]).mean()
        assert head > 0.6  # very heavy head at alpha=1.5

    def test_single_item_catalogue(self):
        from repro.workload.zipf import ZipfSampler

        sampler = ZipfSampler(1, alpha=0.9)
        assert sampler.sample() == 0
        assert sampler._cdf[0] == pytest.approx(1.0)


class TestStoreSmallGaps:
    def test_default_item_size_used(self):
        from repro.cache.store import KeyValueStore

        store = KeyValueStore(default_item_size=100)
        store.set("k", "v")
        assert store.used_bytes == 100

    def test_purge_on_empty_store(self):
        from repro.cache.store import KeyValueStore

        assert KeyValueStore().purge_expired(100.0) == 0

    def test_keys_iterator(self):
        from repro.cache.store import KeyValueStore

        store = KeyValueStore()
        store.set("a", 1)
        store.set("b", 2)
        assert sorted(store._items) == ["a", "b"]


class TestNoreplyOverTcp:
    def test_set_noreply_then_get(self):
        from repro.bloom.config import optimal_config
        from repro.net.client import MemcachedClient
        from repro.net.server import MemcachedServer

        async def body():
            server = MemcachedServer(bloom_config=optimal_config(500))
            await server.start()
            try:
                async with MemcachedClient("127.0.0.1", server.port) as client:
                    # noreply set: no response line is sent; the next get
                    # must parse cleanly (no response desync).
                    protocol = client._protocol
                    protocol.send_raw(b"set k 0 0 3 noreply\r\nabc\r\n")
                    assert await client.get("k") == b"abc"
                    protocol.send_raw(b"delete k noreply\r\n")
                    assert await client.get("k") is None
            finally:
                await server.stop()

        asyncio.run(body())


class TestRapidTransitions:
    def test_down_up_down_sequence_through_actuator(self):
        from repro.cache.server import PowerState
        from repro.core.router import ProteusRouter
        from repro.experiments.testbed import SimTestbed, Sizing
        from repro.provisioning.policies import ProvisioningSchedule

        testbed = SimTestbed(
            Sizing(seed=4, catalogue_size=200,
                   cache_capacity_bytes=4096 * 100, pages_per_user=5),
            ProteusRouter(6, ring_size=2 ** 20), ttl=4.0,
        )
        schedule = ProvisioningSchedule(10.0, [6, 4, 6, 3, 5, 5])
        report = testbed.run([3] * 6, 10.0, schedule)
        cache = testbed.cache
        assert cache.active_count == 5
        states = [server.state for server in cache.servers]
        assert states[:5].count(PowerState.ON) == 5
        assert states[5] is PowerState.OFF
        assert len(report.transitions) == 4

    def test_cli_place_custom_ring_size(self, capsys):
        from repro.cli import main

        assert main(["place", "3", "--ring-size", "1000", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ring=1000" in out
