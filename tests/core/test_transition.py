"""Tests for the smooth-transition state machine (Section IV)."""

import pytest

from repro import obs
from repro.bloom.bloom import BloomFilter
from repro.core.transition import Transition, TransitionManager
from repro.errors import ConfigurationError, TransitionError


def digest_with(keys):
    bf = BloomFilter(4096, num_hashes=4)
    bf.update(keys)
    return bf


class TestTransition:
    def test_deadline(self):
        t = Transition(n_old=5, n_new=4, started_at=100.0, ttl=60.0)
        assert t.deadline == 160.0
        assert not t.expired(159.9)
        assert t.expired(160.0)

    def test_direction_flags(self):
        down = Transition(5, 4, 0.0, 60.0)
        up = Transition(4, 5, 0.0, 60.0)
        assert down.is_scale_down
        assert not up.is_scale_down

    def test_draining_servers_scale_down(self):
        t = Transition(6, 3, 0.0, 60.0)
        assert t.draining_servers() == [3, 4, 5]

    def test_draining_servers_scale_up_is_empty(self):
        assert Transition(3, 6, 0.0, 60.0).draining_servers() == []

    def test_digest_hit(self):
        t = Transition(3, 2, 0.0, 60.0, digests={2: digest_with(["hot"])})
        assert t.digest_hit(2, "hot")
        assert not t.digest_hit(2, "cold")
        assert not t.digest_hit(0, "hot")  # no digest for server 0


class TestTransitionManager:
    def test_initial_state(self):
        mgr = TransitionManager(4, 6)
        assert mgr.active_count == 4
        assert mgr.current(0.0) is None
        assert not mgr.in_transition(0.0)

    def test_begin_scale_down(self):
        mgr = TransitionManager(4, 6)
        t = mgr.begin(3, 10.0, 30.0, {})
        assert t is not None and t.n_old == 4 and t.n_new == 3
        assert mgr.active_count == 3  # new count committed immediately
        assert mgr.in_transition(10.0)

    def test_noop_transition_returns_none(self):
        mgr = TransitionManager(4, 6)
        assert not mgr.check(4, 0.0, 30.0)
        with obs.recording() as timeline:
            assert mgr.begin(4, 0.0, 30.0, {}) is None
        assert timeline.events == []

    def test_noop_while_a_window_is_open_stays_a_noop(self):
        # A schedule that repeats its count while a window longer than a
        # slot is still open must not raise.
        mgr = TransitionManager(4, 6)
        mgr.begin(3, 0.0, 30.0, {})
        assert not mgr.check(3, 10.0, 30.0)
        with pytest.raises(TransitionError, match="draining"):
            mgr.check(2, 10.0, 30.0)

    def test_window_auto_expires(self):
        mgr = TransitionManager(4, 6)
        with obs.recording() as timeline:
            mgr.begin(3, 0.0, 30.0, {})
            assert mgr.in_transition(29.9)
            assert not mgr.in_transition(30.0)
        [end] = timeline.of("transition.end")
        assert end.t == 30.0  # the deadline, not the poll
        assert end.fields == {"n_old": 4, "n_new": 3, "powered_off": [3]}

    def test_overlapping_transition_rejected(self):
        mgr = TransitionManager(4, 6)
        mgr.begin(3, 0.0, 30.0, {})
        with pytest.raises(TransitionError):
            mgr.begin(2, 15.0, 30.0, {})

    def test_sequential_transitions_allowed(self):
        mgr = TransitionManager(4, 6)
        mgr.begin(3, 0.0, 30.0, {})
        t = mgr.begin(2, 31.0, 30.0, {})  # previous window closed at 30
        assert t is not None and t.n_old == 3

    def test_power_off_callback_fires_on_scale_down(self):
        mgr = TransitionManager(5, 6)
        events = []
        mgr.on_power_off.append(lambda ids, when: events.append((ids, when)))
        mgr.begin(3, 0.0, 10.0, {})
        mgr.current(10.0)  # poll past the deadline
        assert events == [([3, 4], 10.0)]

    def test_no_power_off_callback_on_scale_up(self):
        mgr = TransitionManager(3, 6)
        events = []
        mgr.on_power_off.append(lambda ids, when: events.append(ids))
        mgr.begin(5, 0.0, 10.0, {})
        mgr.current(20.0)
        assert events == []

    def test_zero_ttl_closes_the_window_inside_begin(self):
        mgr = TransitionManager(4, 6)
        powered_off = []
        mgr.on_power_off.append(lambda ids, when: powered_off.append((ids, when)))
        with obs.recording() as timeline:
            transition = mgr.begin(2, 5.0, 0.0, {})
            assert not mgr.in_transition(5.0)
        assert (transition.n_old, transition.n_new) == (4, 2)
        assert [(e.t, e.kind, e.fields) for e in timeline.events] == [
            (5.0, "transition.begin",
             {"n_old": 4, "n_new": 2, "smooth": False, "digests": []}),
            (5.0, "transition.end",
             {"n_old": 4, "n_new": 2, "powered_off": [2, 3]}),
        ]
        assert powered_off == [([2, 3], 5.0)]
        assert mgr.routing_counts(5.0).old is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TransitionManager(0, 4)
        with pytest.raises(ConfigurationError):
            TransitionManager(5, 4)
        mgr = TransitionManager(4, 4)
        with pytest.raises(TransitionError):
            mgr.check(0, 0.0, 30.0)
        with pytest.raises(TransitionError):
            mgr.check(5, 0.0, 30.0)
        with pytest.raises(TransitionError, match="ttl"):
            mgr.check(3, 0.0, -1.0)


class TestRoutingEpochs:
    def test_no_transition(self):
        mgr = TransitionManager(4, 6)
        epochs = mgr.routing_counts(0.0)
        assert epochs.new == 4
        assert epochs.old is None
        assert not epochs.in_transition

    def test_during_transition(self):
        mgr = TransitionManager(4, 6)
        mgr.begin(3, 0.0, 30.0, {3: digest_with(["k"])})
        epochs = mgr.routing_counts(15.0)
        assert epochs.new == 3
        assert epochs.old == 4
        assert epochs.in_transition
        assert epochs.transition.digest_hit(3, "k")

    def test_after_expiry(self):
        mgr = TransitionManager(4, 6)
        mgr.begin(3, 0.0, 30.0, {})
        epochs = mgr.routing_counts(31.0)
        assert epochs.new == 3
        assert epochs.old is None
