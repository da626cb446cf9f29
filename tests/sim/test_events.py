"""Tests for the discrete-event engine and its clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventLoop

#: past every event these tests schedule
END = 100.0


class TestSimClock:
    """The loop's ``now``: from 0, forward only."""

    def test_starts_at_zero(self):
        assert EventLoop().now == 0.0

    def test_advance_to(self):
        loop = EventLoop()
        loop.run_until(10.0)
        assert loop.now == 10.0

    def test_cannot_go_backwards(self):
        loop = EventLoop()
        loop.run_until(10.0)
        with pytest.raises(SimulationError):
            loop.run_until(9.0)


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, fired.append, "c")
        loop.schedule_at(1.0, fired.append, "a")
        loop.schedule_at(2.0, fired.append, "b")
        loop.run_until(END)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule_at(1.0, fired.append, tag)
        loop.run_until(END)
        assert fired == ["first", "second", "third"]

    def test_clock_advances_with_dispatch(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(4.0, lambda: seen.append(loop.now))
        loop.run_until(END)
        assert seen == [4.0]
        assert loop.now == END

    def test_schedule_in_past_raises(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda: None)
        loop.run_until(5.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(4.0, lambda: None)

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        fired = []

        def chain(depth):
            fired.append(loop.now)
            if depth > 0:
                loop.schedule_at(loop.now + 1.0, chain, depth - 1)

        loop.schedule_at(0.0, chain, 3)
        loop.run_until(END)
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_stops_at_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, fired.append, "early")
        loop.schedule_at(5.0, fired.append, "late")
        loop.run_until(3.0)
        assert fired == ["early"]
        assert loop.now == 3.0
        loop.run_until(END)
        assert fired == ["early", "late"]
