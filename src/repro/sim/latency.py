"""Latency models and FIFO service queues.

Two building blocks:

* :class:`LatencyModel` — samples a service time.  The delay-spike behaviour
  the paper measures (Fig. 9) does not come from the *distribution* of a
  single service time; it comes from **queueing**:

* :class:`ServiceQueue` — a work-conserving FIFO queue tracked as a
  "busy-until" horizon.  When the Naive scheme remaps ``n/(n+1)`` of keys,
  the resulting miss storm piles requests onto the database shards, the
  busy horizon races ahead of arrivals, and the tail latency explodes —
  exactly the Fig. 9 spike.  The queue abstraction is O(1) per request, so
  the cluster simulation stays fast.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError


class LatencyModel(ABC):
    """A distribution of service times (seconds)."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one service time using *rng* (injected for determinism)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected service time."""


class Constant(LatencyModel):
    """Always the same service time."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(f"latency must be >= 0, got {value}")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value


class Exponential(LatencyModel):
    """Exponential with the given mean (the classic M/M/1 service)."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean}")
        self._mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    @property
    def mean(self) -> float:
        return self._mean


class ServiceQueue:
    """A single-server work-conserving FIFO queue.

    State is one number: the time the server becomes free.  ``enqueue``
    returns the request's completion time and advances the horizon.  This is
    an exact simulation of a FIFO single server (no approximation), at O(1)
    per request.
    """

    def __init__(self) -> None:
        self._busy_until = 0.0
        #: total busy seconds accumulated (the power meter's utilization)
        self.busy_time = 0.0

    def enqueue(self, now: float, service_time: float) -> float:
        """Admit a request arriving at *now* needing *service_time* seconds.

        Returns the completion time ``max(now, busy_until) + service_time``.
        """
        if service_time < 0:
            raise ConfigurationError(
                f"service_time must be >= 0, got {service_time}"
            )
        start = max(now, self._busy_until)
        completion = start + service_time
        self._busy_until = completion
        self.busy_time += service_time
        return completion


def mm1_response_time(arrival_rate: float, service_rate: float) -> float:
    """Analytic M/M/1 mean response time ``1 / (mu - lambda)``.

    Used by tests to validate :class:`ServiceQueue` against theory and by the
    provisioning controller to size the cluster.  Returns ``inf`` when the
    queue is unstable (``lambda >= mu``).
    """
    if service_rate <= 0:
        raise ConfigurationError(f"service_rate must be > 0, got {service_rate}")
    if arrival_rate < 0:
        raise ConfigurationError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if arrival_rate >= service_rate:
        return math.inf
    return 1.0 / (service_rate - arrival_rate)
