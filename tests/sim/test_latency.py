"""Tests for latency models and service queues."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.latency import (
    Constant,
    Exponential,
    ServiceQueue,
    mm1_response_time,
)


@pytest.fixture
def rng():
    return random.Random(1234)


class TestModels:
    def test_constant(self, rng):
        model = Constant(0.05)
        assert model.sample(rng) == 0.05
        assert model.mean == 0.05

    def test_exponential_mean(self, rng):
        model = Exponential(0.05)
        samples = [model.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(0.05, rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Constant(-1.0)
        with pytest.raises(ConfigurationError):
            Exponential(0.0)


class TestServiceQueue:
    def test_fifo_backlog(self):
        queue = ServiceQueue()
        assert queue.enqueue(0.0, 1.0) == 1.0
        assert queue.enqueue(0.0, 1.0) == 2.0

    def test_idle_gap(self):
        queue = ServiceQueue()
        queue.enqueue(0.0, 1.0)
        assert queue.enqueue(5.0, 1.0) == 6.0
        assert queue.enqueue(10.0, 1.0) == 11.0

    def test_utilization(self):
        # busy_time is what the power meter's busy_time_probe reads.
        queue = ServiceQueue()
        queue.enqueue(0.0, 2.0)
        queue.enqueue(0.5, 1.0)
        assert queue.busy_time == 3.0

    def test_negative_service_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceQueue().enqueue(0.0, -1.0)

    def test_matches_mm1_theory(self):
        # Drive an M/M/1 at rho=0.7 and compare the mean response time with
        # 1/(mu - lambda).
        rng = random.Random(9)
        service = Exponential(1.0)
        queue = ServiceQueue()
        arrival_rate = 0.7
        t = 0.0
        responses = []
        for _ in range(60_000):
            t += rng.expovariate(arrival_rate)
            done = queue.enqueue(t, service.sample(rng))
            responses.append(done - t)
        measured = sum(responses) / len(responses)
        predicted = mm1_response_time(arrival_rate, 1.0)
        assert measured == pytest.approx(predicted, rel=0.08)


class TestMM1Formula:
    def test_stable(self):
        assert mm1_response_time(0.5, 1.0) == pytest.approx(2.0)

    def test_unstable_is_inf(self):
        assert mm1_response_time(1.0, 1.0) == math.inf
        assert mm1_response_time(2.0, 1.0) == math.inf

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mm1_response_time(-0.1, 1.0)
        with pytest.raises(ConfigurationError):
            mm1_response_time(0.5, 0.0)
