"""Tests for the discrete-event engine and the clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_cannot_go_backwards(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.0)


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, fired.append, "c")
        loop.schedule_at(1.0, fired.append, "a")
        loop.schedule_at(2.0, fired.append, "b")
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule_at(1.0, fired.append, tag)
        loop.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_with_dispatch(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(4.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [4.0]
        assert loop.now == 4.0

    def test_schedule_in_past_raises(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(4.0, lambda: None)

    def test_relative_schedule(self):
        loop = EventLoop()
        loop.clock.advance_to(10.0)
        seen = []
        loop.schedule(2.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [12.0]
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        fired = []

        def chain(depth):
            fired.append(loop.now)
            if depth > 0:
                loop.schedule(1.0, chain, depth - 1)

        loop.schedule_at(0.0, chain, 3)
        loop.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_stops_at_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, fired.append, "early")
        loop.schedule_at(5.0, fired.append, "late")
        loop.run_until(3.0)
        assert fired == ["early"]
        assert loop.now == 3.0
        loop.run()
        assert fired == ["early", "late"]

    def test_cancellation(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule_at(1.0, fired.append, "cancelled")
        loop.schedule_at(2.0, fired.append, "kept")
        handle.cancel()
        assert handle.cancelled
        loop.run()
        assert fired == ["kept"]

    def test_peek_time_skips_cancelled(self):
        loop = EventLoop()
        handle = loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert loop.peek_time() == 2.0

    def test_run_max_events(self):
        loop = EventLoop()
        for i in range(10):
            loop.schedule_at(float(i), lambda: None)
        assert loop.run(max_events=4) == 4
        assert len(loop) == 6

    def test_dispatched_counter(self):
        loop = EventLoop()
        loop.schedule_at(0.0, lambda: None)
        assert loop.run() == 1
