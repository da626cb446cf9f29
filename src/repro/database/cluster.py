"""The sharded database tier (paper Section V-A4: 7 MySQL shards).

Keys are hash-partitioned across shards ("7 non-overlapping shards on 7
different servers"); the web server computes the shard deterministically, so
no metadata lookup is needed — matching the paper's observation that
meta-server indirection is too slow for the cache tier's request rates.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.bloom.hashing import stable_hash64
from repro.database.shard import DatabaseShard, ShardResponse
from repro.errors import ConfigurationError
from repro.sim.latency import LatencyModel

#: The paper's database tier size.
DEFAULT_NUM_SHARDS = 7

#: Hash salt reserved for shard selection (distinct from ring/bloom salts).
_SHARD_SALT = 0x0DB


class DatabaseCluster:
    """A fixed set of :class:`DatabaseShard` with deterministic routing."""

    def __init__(
        self,
        num_shards: int = DEFAULT_NUM_SHARDS,
        service_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.shards: List[DatabaseShard] = [
            DatabaseShard(shard_id=i, service_model=service_model, seed=seed)
            for i in range(num_shards)
        ]

    def shard_for(self, key: str) -> DatabaseShard:
        """The shard authoritative for *key*."""
        return self.shards[stable_hash64(key, salt=_SHARD_SALT) % len(self.shards)]

    def get(self, key: str, now: float) -> ShardResponse:
        """Read *key* through its shard's queue."""
        return self.shard_for(key).get(key, now)

    def put(self, key: str, value: Any) -> None:
        """Install authoritative data on the owning shard."""
        self.shard_for(key).put(key, value)

    def total_requests(self) -> int:
        """Requests served across all shards — the DB pressure metric.

        A provisioning transition under the Naive scheme shows up as a step
        in this counter; under Proteus it barely moves (Algorithm 2 keeps
        misses in the cache tier).
        """
        return sum(shard.requests for shard in self.shards)
