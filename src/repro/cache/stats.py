"""Cache-server counters, in the spirit of memcached's ``stats`` command."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class CacheStats:
    """Monotonic operation counters for one cache server.

    The paper's evaluation reads two derived quantities off these: the hit
    ratio (Fig. 6) and the per-server request load (Fig. 5's min/max ratio).
    """

    gets: int = 0
    hits: int = 0
    misses: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0
    expirations: int = 0
    bytes_stored: int = 0
    items: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over gets; 0.0 before any get."""
        return self.hits / self.gets if self.gets else 0.0

    @property
    def requests(self) -> int:
        """Total operations served (the Fig. 5 load metric)."""
        return self.gets + self.sets + self.deletes

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for reports (memcached ``stats``-style)."""
        return {
            "gets": self.gets,
            "hits": self.hits,
            "misses": self.misses,
            "sets": self.sets,
            "deletes": self.deletes,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "bytes_stored": self.bytes_stored,
            "items": self.items,
            "hit_ratio": self.hit_ratio,
        }

    def snapshot(self) -> "CacheStats":
        """A copy frozen at the current values."""
        return CacheStats(**{k: getattr(self, k) for k in (
            "gets", "hits", "misses", "sets", "deletes",
            "evictions", "expirations", "bytes_stored", "items",
        )})

    def diff(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas since *earlier* (per-slot load accounting)."""
        return CacheStats(
            gets=self.gets - earlier.gets,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            sets=self.sets - earlier.sets,
            deletes=self.deletes - earlier.deletes,
            evictions=self.evictions - earlier.evictions,
            expirations=self.expirations - earlier.expirations,
            bytes_stored=self.bytes_stored - earlier.bytes_stored,
            items=self.items - earlier.items,
        )
