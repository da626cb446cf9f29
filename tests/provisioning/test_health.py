"""Cluster health aggregation: snapshot semantics and delta bookkeeping."""

import pytest

from repro.core.retrieval import DEGRADED_EVENTS, FetchPath, FetchStats
from repro.provisioning.health import (
    ClusterHealthMonitor,
    HealthSnapshot,
    open_circuits,
)
from repro.resilience import BreakerState, CircuitBreaker
from tests.conftest import healthy


def snapshot(**kwargs):
    kwargs.setdefault("at", 0.0)
    return HealthSnapshot(**kwargs)


class TestHealthSnapshot:
    def test_empty_snapshot_is_healthy(self):
        snap = snapshot()
        assert healthy(snap)
        assert snap.unhealthy_servers == frozenset()
        assert snap.degraded_rate == 0.0

    def test_an_unhealthy_server_marks_the_snapshot_unhealthy(self):
        snap = snapshot(unhealthy_servers=frozenset({1, 3}))
        assert not healthy(snap)

    def test_degraded_rate_per_request(self):
        snap = snapshot(
            requests=200,
            degraded={"timeouts": 8, "transport_errors": 2},
        )
        assert snap.degraded_events == 10
        assert snap.degraded_rate == pytest.approx(0.05)
        assert not healthy(snap)


class FakeStats:
    """Duck-typed FetchStats: cumulative totals the monitor differences."""

    def __init__(self):
        self.total = 0
        self.degraded = {event: 0 for event in DEGRADED_EVENTS}
        self.counts = {path: 0 for path in FetchPath}


def monitor(*stats, unavailable=frozenset, in_transition=lambda now: False):
    """A monitor over *stats*; nothing down, no drain window, unless
    given."""
    return ClusterHealthMonitor(stats, unavailable, in_transition)


class TestMonitorDeltas:
    def test_windows_are_deltas_not_cumulative(self):
        stats = FakeStats()
        health = monitor(stats)

        stats.total = 100
        stats.counts[FetchPath.HIT_OLD] = 7
        first = health.observe(30.0)
        assert first.requests == 100
        assert first.remap_misses == 7

        stats.total = 160
        stats.counts[FetchPath.HIT_OLD] = 7  # decay finished: no new misses
        second = health.observe(60.0)
        assert second.requests == 60
        assert second.remap_misses == 0

    def test_remap_signal_sums_both_paths(self):
        stats = FakeStats()
        health = monitor(stats)
        stats.counts[FetchPath.HIT_OLD] = 3
        stats.counts[FetchPath.FALSE_POSITIVE_DB] = 2
        assert health.observe(1.0).remap_misses == 5

    def test_multiple_stats_sources_add_up(self):
        a, b = FakeStats(), FakeStats()
        health = monitor(a, b)
        a.total, b.total = 10, 20
        a.degraded["timeouts"] = 1
        b.degraded["timeouts"] = 2
        snap = health.observe(1.0)
        assert snap.requests == 30
        assert snap.degraded["timeouts"] == 3

    def test_breaker_states_partition_servers(self):
        clock = {"now": 0.0}
        breakers = [
            CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                           clock=lambda: clock["now"])
            for _ in range(4)
        ]
        breakers[1].record_failure()  # OPEN until t=1.0
        clock["now"] = 0.5
        breakers[2].record_failure()  # OPEN until t=1.5
        clock["now"] = 1.2
        states = [breaker.state() for breaker in breakers]
        assert states[1] is BreakerState.HALF_OPEN
        assert states[2] is BreakerState.OPEN
        health = monitor(
            FakeStats(), unavailable=lambda: open_circuits(breakers)
        )
        snap = health.observe(1.2)
        # HALF_OPEN is probing its way back: not counted as lost capacity.
        assert snap.unhealthy_servers == frozenset({2})
        clock["now"] = 1.6
        assert health.observe(1.6).unhealthy_servers == frozenset()

    def test_failures_and_transition_probe(self):
        health = monitor(
            unavailable=lambda: {2, 3}, in_transition=lambda now: now < 10.0
        )
        early = health.observe(5.0)
        late = health.observe(15.0)
        assert early.unhealthy_servers == frozenset({2, 3})
        assert early.in_transition
        assert not late.in_transition

    def test_reads_a_cluster_and_its_webs(self):
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
        health = ClusterHealthMonitor(
            [web.stats for web in webs], cluster.failed_servers,
            cluster.transitions.in_transition,
        )
        baseline = health.observe(0.0)
        assert baseline.requests == 0

        webs[0].fetch("a", now=0.1)
        cluster.fail_server(1, now=0.2)
        snap = health.observe(30.0)
        assert snap.requests == 1
        assert snap.unhealthy_servers == frozenset({1})


class TestShedSignal:
    def test_shed_marks_unhealthy_and_sets_rate(self):
        snap = snapshot(requests=200, shed=10)
        assert snap.shed_rate == pytest.approx(0.05)
        assert not healthy(snap)
        assert snapshot(requests=0, shed=0).shed_rate == 0.0

    def test_monitor_differences_the_shed_counter(self):
        stats = FetchStats()
        health = monitor(stats)
        stats.counts[FetchPath.SHED] += 3
        stats.counts[FetchPath.MISS_DB] += 7
        first = health.observe(now=1.0)
        assert first.shed == 3
        assert first.requests == 10
        assert first.shed_rate == pytest.approx(0.3)
        # no new sheds: the next window reports zero, not the total
        second = health.observe(now=2.0)
        assert second.shed == 0
        assert healthy(second)
