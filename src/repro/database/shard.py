"""One database shard — a slice of the backing store with a service queue.

Models a MySQL server holding one horizontal slice of the Wikipedia dump
(Section V-A4).  The paper's per-request work is three dependent lookups
(``page -> page_latest -> rev_text_id -> old_text``); we fold that into the
shard's service-time distribution rather than simulating InnoDB.  The shard
is a single-server FIFO queue, so a burst of cache misses piles up queueing
delay — the mechanism behind the Fig. 9 Naive spike.

The shard *always* has the data (the database tier is authoritative): values
are synthesized deterministically from the key unless one was :meth:`put`,
which stands in for the 70 GB dump without storing it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.latency import Exponential, LatencyModel, ServiceQueue

#: Default mean DB service time.  A 3-lookup InnoDB read with warm buffer
#: pool is a few ms; with cold pages and text retrieval the paper's tier
#: answers in tens of ms.  50 ms keeps the cache-vs-DB gap (~50x) realistic.
DEFAULT_DB_SERVICE_MEAN = 0.050


def synthesize_page(key: str, size: int = 4096) -> bytes:
    """Deterministic stand-in for a Wikipedia article body."""
    seed = f"enwiki:{key}".encode("utf-8")
    block = (seed + b"\x00") * (size // (len(seed) + 1) + 1)
    return block[:size]


class DatabaseShard:
    """One shard: authoritative data + FIFO service queue.

    Args:
        shard_id: index within the cluster.
        service_model: per-request service-time distribution.
        seed: RNG seed for service-time sampling.
    """

    def __init__(
        self,
        shard_id: int,
        service_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        if shard_id < 0:
            raise ConfigurationError(f"shard_id must be >= 0, got {shard_id}")
        self.service_model = service_model or Exponential(DEFAULT_DB_SERVICE_MEAN)
        #: values installed by :meth:`put`; any other key is synthesized
        self.dataset: Dict[str, Any] = {}
        self.queue = ServiceQueue()
        self._rng = random.Random((seed << 8) ^ shard_id)
        #: total requests answered
        self.requests = 0

    def lookup(self, key: str) -> Any:
        """The value for *key* (no timing): dataset, then synthesizer."""
        if key in self.dataset:
            return self.dataset[key]
        return synthesize_page(key)

    def get(self, key: str, now: float) -> "ShardResponse":
        """Serve *key* through the FIFO queue; returns value + completion time."""
        service = self.service_model.sample(self._rng)
        completion = self.queue.enqueue(now, service)
        self.requests += 1
        return ShardResponse(self.lookup(key), completion)

    def put(self, key: str, value: Any) -> None:
        """Install authoritative data (tests / dataset loading)."""
        self.dataset[key] = value


class ShardResponse:
    """Outcome of one shard read."""

    __slots__ = ("value", "completion_time")

    def __init__(self, value: Any, completion_time: float) -> None:
        self.value = value
        self.completion_time = completion_time
