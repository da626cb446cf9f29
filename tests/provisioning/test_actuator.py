"""Tests for the provisioning actuator."""

from repro import obs
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.cache.server import PowerState
from repro.core.router import ProteusRouter
from repro.provisioning.actuator import ProvisioningActuator
from repro.provisioning.policies import ProvisioningSchedule
from repro.sim.events import EventLoop

CFG = optimal_config(1000)


def cluster(n=4, active=4, ttl=20.0):
    return CacheCluster(
        ProteusRouter(n, ring_size=2 ** 20),
        capacity_bytes=4096 * 100,
        initial_active=active,
        ttl=ttl,
        bloom_config=CFG,
    )


class TestApply:
    def test_smooth_apply_starts_transition(self):
        c = cluster()
        actuator = ProvisioningActuator(c, smooth=True)
        with obs.recording() as timeline:
            transition = actuator.apply(3, now=0.0)
        assert transition.n_old == 4 and transition.n_new == 3
        [begin] = timeline.of("transition.begin")
        assert begin.fields["smooth"] and begin.fields["digests"] == [3]
        assert c.transitions.in_transition(0.0)

    def test_abrupt_apply_has_no_window(self):
        c = cluster()
        actuator = ProvisioningActuator(c, smooth=False)
        actuator.apply(3, now=0.0)
        assert not c.transitions.in_transition(0.0)
        assert c.server(3).state is PowerState.OFF

    def test_noop_returns_none(self):
        actuator = ProvisioningActuator(cluster(), smooth=True)
        with obs.recording() as timeline:
            assert actuator.apply(4, now=0.0) is None
        assert timeline.events == []


def replay(actuator, schedule, loop):
    """Apply each change of *schedule* at its boundary on *loop*."""
    for when, _n_old, n_new in schedule.transitions():
        loop.schedule_at(when, actuator.apply_at, n_new, loop)


class TestInstall:
    def test_schedule_executes_on_loop(self):
        c = cluster(4, active=3, ttl=5.0)
        actuator = ProvisioningActuator(c, smooth=True)
        loop = EventLoop()
        schedule = ProvisioningSchedule(10.0, [3, 2, 2, 4])
        replay(actuator, schedule, loop)
        with obs.recording() as timeline:
            loop.run_until(schedule.duration)
        begins = timeline.of("transition.begin")
        assert [event.t for event in begins] == [10.0, 30.0]
        assert [event.fields["n_new"] for event in begins] == [2, 4]
        assert c.active_count == 4

    def test_ttl_finalization_powers_off(self):
        c = cluster(4, active=4, ttl=5.0)
        actuator = ProvisioningActuator(c, smooth=True)
        loop = EventLoop()
        replay(actuator, ProvisioningSchedule(10.0, [4, 3]), loop)
        loop.run_until(14.0)
        assert c.server(3).state is PowerState.DRAINING
        loop.run_until(16.0)  # past 10 + ttl(5)
        assert c.server(3).state is PowerState.OFF

    def test_apply_at_returns_the_record_and_arms_the_power_off(self):
        c = cluster(4, active=4, ttl=5.0)
        actuator = ProvisioningActuator(c, smooth=True)
        loop = EventLoop()
        loop.run_until(10.0)
        transition = actuator.apply_at(3, loop)
        assert (
            transition.started_at, transition.n_old, transition.n_new
        ) == (10.0, 4, 3)
        assert c.transitions.current(10.0).deadline == 15.0
        assert actuator.apply_at(3, loop) is None  # no-op
        loop.run_until(14.0)
        assert c.server(3).state is PowerState.DRAINING
        loop.run_until(16.0)
        assert c.server(3).state is PowerState.OFF

    def test_abrupt_apply_at_arms_nothing(self):
        c = cluster(4, active=4)
        loop = EventLoop()
        with obs.recording() as timeline:
            transition = ProvisioningActuator(c, smooth=False).apply_at(2, loop)
        assert transition.n_new == 2
        [begin] = timeline.of("transition.begin")
        assert not begin.fields["smooth"] and begin.fields["digests"] == []
        assert len(loop) == 0

    def test_abrupt_install(self):
        c = cluster(4, active=4)
        actuator = ProvisioningActuator(c, smooth=False)
        loop = EventLoop()
        replay(actuator, ProvisioningSchedule(10.0, [4, 2]), loop)
        loop.run_until(10.0)
        assert c.server(2).state is PowerState.OFF
        assert c.server(3).state is PowerState.OFF
