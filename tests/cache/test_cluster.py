"""Tests for the cache tier (CacheCluster) scaling choreography."""

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.cache.server import PowerState
from repro.core.router import ProteusRouter
from repro.errors import ConfigurationError, TransitionError

CFG = optimal_config(2000)


def cluster(n=4, active=None):
    return CacheCluster(
        ProteusRouter(n, ring_size=2 ** 20),
        capacity_bytes=4096 * 500,
        initial_active=active,
        bloom_config=CFG,
    )


class TestConstruction:
    def test_initial_power_states(self):
        c = cluster(4, active=2)
        states = [s.state for s in c.servers]
        assert states == [PowerState.ON, PowerState.ON, PowerState.OFF, PowerState.OFF]
        assert c.active_count == 2
        assert c.powered_servers() == [0, 1]

    def test_defaults_all_active(self):
        assert cluster(3).active_count == 3

    def test_rejects_bad_initial_active(self):
        with pytest.raises(ConfigurationError):
            cluster(4, active=0)
        with pytest.raises(ConfigurationError):
            cluster(4, active=5)


class TestSmoothScaleDown:
    def test_digest_broadcast_covers_ceding_servers(self):
        # Proteus scale-down cedes exactly the draining servers — only
        # their keys can move (deactivating a server returns its borrowed
        # ranges to the lenders), so only their digests are broadcast.
        c = cluster(4, active=4)
        c.server(3).set("victim-key", 1, now=0.0)
        transition = c.scale_to(3, 10.0, 30.0)
        assert transition is not None
        assert list(transition.digests) == [3]
        assert transition.digest_hit(3, "victim-key")

    def test_drained_server_state_machine(self):
        c = cluster(4)
        c.scale_to(3, 0.0, 30.0)
        assert c.server(3).state is PowerState.DRAINING
        c.finalize_expired(now=29.0)
        assert c.server(3).state is PowerState.DRAINING
        c.finalize_expired(now=30.0)
        assert c.server(3).state is PowerState.OFF

    def test_drained_server_loses_data_at_power_off(self):
        c = cluster(4)
        c.server(3).set("k", 1, now=0.0)
        c.scale_to(3, 0.0, 10.0)
        c.finalize_expired(now=10.0)
        c.server(3).power_on(11.0)
        assert c.server(3).get_many(["k"], 11.0).get("k") is None

    def test_overlapping_smooth_transitions_rejected(self):
        c = cluster(6)
        c.scale_to(5, 0.0, 100.0)
        with pytest.raises(TransitionError):
            c.scale_to(4, 5.0, 100.0)
        # The rejection came before any power change.
        assert c.server(4).state is PowerState.ON


class TestSmoothScaleUp:
    def test_new_servers_power_on_cold(self):
        c = cluster(4, active=2)
        transition = c.scale_to(4, 0.0, 30.0)
        assert transition.n_new > transition.n_old
        assert c.server(2).state is PowerState.ON
        assert c.server(3).state is PowerState.ON
        assert len(c.server(2).store) == 0

    def test_digests_cover_ceding_servers(self):
        c = cluster(4, active=2)
        c.server(0).set("moving", 1, now=0.0)
        transition = c.scale_to(4, 1.0, 30.0)
        assert set(transition.digests) == {0, 1}
        assert transition.digest_hit(0, "moving")

    def test_noop_scale_returns_none(self):
        c = cluster(4, active=2)
        assert c.scale_to(2, 0.0, 30.0) is None


class TestAbruptScaling:
    def test_scale_down_powers_off_immediately(self):
        c = cluster(4)
        c.server(3).set("k", 1, now=0.0)
        c.scale_to(3, 0.0, 0.0)
        assert c.server(3).state is PowerState.OFF
        assert not c.transitions.in_transition(0.0)

    def test_scale_up_powers_on_immediately(self):
        c = cluster(4, active=2)
        c.scale_to(4, 0.0, 0.0)
        assert c.powered_servers() == [0, 1, 2, 3]
        assert not c.transitions.in_transition(0.0)

    def test_routing_epochs_show_no_transition(self):
        c = cluster(4)
        c.scale_to(2, 0.0, 0.0)
        epochs = c.routing_epochs(0.0)
        assert epochs.new == 2
        assert epochs.old is None

    def test_rejects_out_of_range(self):
        with pytest.raises(TransitionError):
            cluster(4).scale_to(5, 0.0, 0.0)
        with pytest.raises(TransitionError):
            cluster(4).scale_to(0, 0.0, 30.0)


class TestMetrics:
    def test_per_server_requests(self):
        c = cluster(3)
        c.server(0).set("a", 1)
        c.server(0).get_many(["a"])
        c.server(1).get_many(["missing"])
        assert c.per_server_requests() == [2, 1, 0]

    def test_total_hit_ratio(self):
        c = cluster(2)
        c.server(0).set("a", 1)
        c.server(0).get_many(["a"])
        c.server(1).get_many(["missing"])
        assert c.total_hit_ratio() == 0.5

    def test_hit_ratio_empty(self):
        assert cluster(2).total_hit_ratio() == 0.0
