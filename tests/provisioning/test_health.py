"""Cluster health aggregation: snapshot semantics and delta bookkeeping."""

import pytest

from repro.core.retrieval import DEGRADED_EVENTS, FetchPath, FetchStats
from repro.errors import ConfigurationError
from repro.provisioning.health import ClusterHealthMonitor, HealthSnapshot
from repro.resilience import BreakerSnapshot, BreakerState


def snapshot(**kwargs):
    kwargs.setdefault("at", 0.0)
    return HealthSnapshot(**kwargs)


class TestHealthSnapshot:
    def test_empty_snapshot_is_healthy(self):
        snap = snapshot()
        assert snap.healthy
        assert snap.unhealthy_servers == frozenset()
        assert snap.degraded_rate == 0.0

    def test_unhealthy_is_open_union_failed(self):
        snap = snapshot(
            open_servers=frozenset({1}),
            failed_servers=frozenset({3}),
        )
        assert snap.unhealthy_servers == frozenset({1, 3})
        assert not snap.healthy

    def test_degraded_rate_per_request(self):
        snap = snapshot(
            requests=200,
            degraded={"timeouts": 8, "transport_errors": 2},
        )
        assert snap.degraded_events == 10
        assert snap.degraded_rate == pytest.approx(0.05)
        assert not snap.healthy


class FakeStats:
    """Duck-typed FetchStats: cumulative totals the monitor differences."""

    def __init__(self):
        self.total = 0
        self.degraded = {event: 0 for event in DEGRADED_EVENTS}
        self.counts = {path: 0 for path in FetchPath}


class TestMonitorDeltas:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            ClusterHealthMonitor(0)

    def test_windows_are_deltas_not_cumulative(self):
        monitor = ClusterHealthMonitor(4)
        stats = FakeStats()
        monitor.watch_stats(lambda: stats)

        stats.total = 100
        stats.counts[FetchPath.HIT_OLD] = 7
        first = monitor.observe(30.0)
        assert first.requests == 100
        assert first.remap_misses == 7

        stats.total = 160
        stats.counts[FetchPath.HIT_OLD] = 7  # decay finished: no new misses
        second = monitor.observe(60.0)
        assert second.requests == 60
        assert second.remap_misses == 0

    def test_remap_signal_sums_both_paths(self):
        monitor = ClusterHealthMonitor(4)
        stats = FakeStats()
        monitor.watch_stats(lambda: stats)
        stats.counts[FetchPath.HIT_OLD] = 3
        stats.counts[FetchPath.FALSE_POSITIVE_DB] = 2
        assert monitor.observe(1.0).remap_misses == 5

    def test_multiple_stats_sources_add_up(self):
        monitor = ClusterHealthMonitor(4)
        a, b = FakeStats(), FakeStats()
        monitor.watch_stats(lambda: a)
        monitor.watch_stats(lambda: b)
        a.total, b.total = 10, 20
        a.degraded["timeouts"] = 1
        b.degraded["timeouts"] = 2
        snap = monitor.observe(1.0)
        assert snap.requests == 30
        assert snap.degraded["timeouts"] == 3

    def test_breaker_states_partition_servers(self):
        monitor = ClusterHealthMonitor(4)
        states = {
            0: BreakerState.CLOSED,
            1: BreakerState.OPEN,
            2: BreakerState.HALF_OPEN,
        }
        monitor.watch_breakers(lambda: {
            sid: BreakerSnapshot(
                state=state, open_since=None, consecutive_failures=0,
                trips=0, rejections=0,
            )
            for sid, state in states.items()
        })
        snap = monitor.observe(1.0)
        assert snap.open_servers == frozenset({1})
        # HALF_OPEN is probing its way back: not counted as lost capacity.
        assert 2 not in snap.unhealthy_servers
        assert snap.unhealthy_servers == frozenset({1})

    def test_failures_and_transition_probe(self):
        monitor = ClusterHealthMonitor(4)
        monitor.watch_failures(lambda: {2, 3})
        monitor.watch_transition(lambda now: now < 10.0)
        early = monitor.observe(5.0)
        late = monitor.observe(15.0)
        assert early.failed_servers == frozenset({2, 3})
        assert early.in_transition
        assert not late.in_transition


class TestSimulationFactory:
    def test_wires_cluster_and_webs(self):
        from repro.bloom.config import optimal_config
        from repro.cache.cluster import CacheCluster
        from repro.core.router import ProteusRouter
        from repro.database.cluster import DatabaseCluster
        from repro.web.frontend import WebServer

        cluster = CacheCluster(
            ProteusRouter(3), bloom_config=optimal_config(256),
        )
        database = DatabaseCluster(2)
        webs = [WebServer(i, cluster, database) for i in range(2)]
        monitor = ClusterHealthMonitor.for_simulation(cluster, webs)
        assert monitor.num_servers == 3
        baseline = monitor.observe(0.0)
        assert baseline.requests == 0

        webs[0].fetch("a", now=0.1)
        cluster.fail_server(1, now=0.2)
        snap = monitor.observe(30.0)
        assert snap.requests == 1
        assert snap.failed_servers == frozenset({1})


class TestShedSignal:
    def test_shed_marks_unhealthy_and_sets_rate(self):
        snap = snapshot(requests=200, shed=10)
        assert snap.shed_rate == pytest.approx(0.05)
        assert not snap.healthy
        assert snapshot(requests=0, shed=0).shed_rate == 0.0

    def test_monitor_differences_the_shed_counter(self):
        stats = FetchStats()
        monitor = ClusterHealthMonitor(1)
        monitor.watch_stats(lambda: stats)
        stats.counts[FetchPath.SHED] += 3
        stats.counts[FetchPath.MISS_DB] += 7
        first = monitor.observe(now=1.0)
        assert first.shed == 3
        assert first.requests == 10
        assert first.shed_rate == pytest.approx(0.3)
        # no new sheds: the next window reports zero, not the total
        second = monitor.observe(now=2.0)
        assert second.shed == 0
        assert second.healthy
