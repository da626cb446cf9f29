"""Cache-server counters, in the spirit of memcached's ``stats`` command."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Monotonic operation counters for one cache server.

    The paper's evaluation reads two derived quantities off these: the hit
    ratio (Fig. 6) and the per-server request load (Fig. 5's min/max ratio).
    Item count and bytes are the store's own ``len`` and ``used_bytes``.
    """

    gets: int = 0
    hits: int = 0
    misses: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def requests(self) -> int:
        """Total operations served (the Fig. 5 load metric)."""
        return self.gets + self.sets + self.deletes
