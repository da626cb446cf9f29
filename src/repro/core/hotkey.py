"""Hot-key armor: frequency sketches and a frontend-local cache.

No matter how balanced the ring is, a Zipf head key concentrates on a
single cache server — the failure mode DistCache ("Provable Load Balancing
for Large-Scale Storage Systems with Distributed Caching", PAPERS.md)
addresses with a *small* upper-layer cache.  This module is that defense,
adapted to Proteus:

* :class:`CountMinSketch` + :class:`TopKSketch` elect hot keys *online* in
  bounded space — no key enumeration, no offline pass.  The sketch never
  underestimates, so a genuinely hot key cannot be displaced by tail noise
  (see :class:`TopKSketch` for the exact guarantee).
* :class:`HotKeyCache` is the tiny frontend-local cache for elected keys.
  Staleness is bounded the way Algorithm 2 bounds transition staleness:
  entries expire after a TTL, and write-backs/puts invalidate (or refresh)
  the local copy — digest-style invalidation instead of a coherence
  protocol.  DistCache's argument carries over: a cache of ``O(k log N)``
  entries above ``N`` servers absorbs any adversarial hot set of size
  ``k``, so the per-server load the backing tier sees is provably flat.

Everything here is pure bookkeeping — no I/O, no clocks of its own — so
the sans-IO retrieval engines own these objects and every driver
(simulated or live TCP) shares one implementation.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.bloom.hashing import Key, stable_hash64
from repro.errors import ConfigurationError

__all__ = [
    "CountMinSketch",
    "HotKeyCache",
    "HotKeyArmor",
    "TopKSketch",
]

#: Salt base for the sketch's row hash functions (distinct from the ring
#: salts ``0x100+`` and the digest salts ``0x51``/``0x52``).
SKETCH_SALT_BASE = 0x200
#: count-min geometry: counters per row, rows
SKETCH_WIDTH = 1024
SKETCH_DEPTH = 4
#: candidate keys a top-k sketch tracks (the elected hot set's bound)
TOP_K = 128
#: entries a frontend-local hot-key cache holds (LRU beyond it)
HOT_CACHE_CAPACITY = 64


class CountMinSketch:
    """Conservative-update count-min sketch over ``SKETCH_DEPTH x
    SKETCH_WIDTH`` counters.

    Estimates never *under*-count: :meth:`add` returns at least the true count.
    Conservative update (only the minimum-valued cells are incremented)
    tightens the overestimate under skew — exactly the regime a hot-key
    detector runs in.  Hashing goes through the memoized
    :func:`~repro.bloom.hashing.stable_hash64` family, so estimates are
    deterministic across processes and platforms (objective 3: independent
    web servers must elect the same hot set under the same traffic).
    """

    def __init__(self) -> None:
        self.width = width = SKETCH_WIDTH
        self.depth = depth = SKETCH_DEPTH
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]

    def _cells(self, key: Key) -> List[int]:
        return [
            stable_hash64(key, salt=SKETCH_SALT_BASE + row) % self.width
            for row in range(self.depth)
        ]

    def add(self, key: Key, count: int = 1) -> int:
        """Record *count* occurrences; returns the updated estimate."""
        cells = self._cells(key)
        rows = self._rows
        current = min(rows[row][cell] for row, cell in enumerate(cells))
        target = current + count
        for row, cell in enumerate(cells):
            if rows[row][cell] < target:
                rows[row][cell] = target
        return target


class TopKSketch:
    """Space-bounded online top-k election: count-min + a capacity-k heap.

    Tracks at most ``TOP_K`` candidate keys.  A new key displaces the
    least-frequent tracked candidate only when its sketch estimate reaches
    the current minimum, so membership stabilizes on the head of the
    distribution as the stream lengthens.

    Election guarantee (the property the hypothesis suite pins): a key
    whose true count is strictly greater than the true counts of all but
    at most ``TOP_K - 1`` other keys is always elected — the sketch
    never underestimates, so at 2x capacity the elected set is a superset
    of the true top-k whenever the head is separated from rank ``2k``.
    """

    def __init__(self) -> None:
        self.capacity = TOP_K
        self.sketch = CountMinSketch()
        #: tracked candidate -> latest sketch estimate
        self._tracked: Dict[Key, int] = {}
        #: lazy min-heap of (estimate, key); stale entries skipped on pop
        self._heap: List[Tuple[int, Key]] = []

    def __len__(self) -> int:
        return len(self._tracked)

    def __contains__(self, key: Key) -> bool:
        return key in self._tracked

    def record(self, key: Key, count: int = 1) -> bool:
        """Observe *key*; returns True when it is (now) elected hot."""
        estimate = self.sketch.add(key, count)
        tracked = self._tracked
        if key in tracked:
            tracked[key] = estimate
            heapq.heappush(self._heap, (estimate, key))
            return True
        if len(tracked) < self.capacity:
            tracked[key] = estimate
            heapq.heappush(self._heap, (estimate, key))
            return True
        if estimate >= self.threshold():
            self._evict_min()
            tracked[key] = estimate
            heapq.heappush(self._heap, (estimate, key))
            return True
        return False

    def is_hot(self, key: Key) -> bool:
        """Membership in the elected set (no sketch update)."""
        return key in self._tracked

    def threshold(self) -> int:
        """The smallest tracked estimate — the bar a newcomer must meet."""
        tracked = self._tracked
        if not tracked:
            return 0
        heap = self._heap
        while heap:
            estimate, key = heap[0]
            if tracked.get(key) == estimate:
                return estimate
            heapq.heappop(heap)  # stale: the key was updated or evicted
        # Heap drained by lazy deletion: rebuild from the tracked map.
        self._heap = [(est, key) for key, est in tracked.items()]
        heapq.heapify(self._heap)
        return self._heap[0][0]

    def _evict_min(self) -> None:
        tracked = self._tracked
        heap = self._heap
        while heap:
            estimate, key = heapq.heappop(heap)
            if tracked.get(key) == estimate:
                del tracked[key]
                return
        if tracked:  # pragma: no cover - lazy-heap safety net
            victim = min(tracked, key=tracked.get)
            del tracked[victim]


class HotKeyCache:
    """A tiny frontend-local cache for sketch-elected hot keys.

    Staleness is TTL-bounded exactly the way Algorithm 2 bounds transition
    staleness: an entry older than *ttl* is never served, and write-backs /
    puts invalidate (or refresh) the local copy immediately — the same
    digest-style "bounded window, then the authoritative path" contract
    the transition drain window gives remapped keys.  Capacity
    (``HOT_CACHE_CAPACITY``) is LRU bounded; the cache is supposed to hold
    the Zipf *head*, not the body.
    """

    def __init__(self, ttl: float = 1.0) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive, got {ttl}")
        self.capacity = HOT_CACHE_CAPACITY
        self.ttl = ttl
        #: key -> (value, stored_at); dict order doubles as LRU order
        self._entries: Dict[Key, Tuple[Any, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def get(self, key: Key, now: float) -> Optional[Any]:
        """The locally cached value, or ``None`` on miss/expiry."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, stored_at = entry
        if now - stored_at >= self.ttl:
            del self._entries[key]
            return None
        # LRU touch: move to the most-recent end.
        del self._entries[key]
        self._entries[key] = (value, stored_at)
        return value

    def store(self, key: Key, value: Any, now: float) -> None:
        """Install/refresh the local copy (restarts the staleness window)."""
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]  # LRU victim
        entries[key] = (value, now)

    def invalidate(self, key: Key) -> bool:
        """Drop the local copy (a write made it stale); True if present."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False


class HotKeyArmor:
    """The engine-side bundle: election sketch + local cache.

    One instance per retrieval engine (therefore per frontend): hot-set
    election and the local cache are deliberately frontend-local state —
    independent frontends converge on the same hot set because they see
    the same traffic distribution, not because they coordinate (the same
    argument the paper makes for deterministic routing).  Each part keeps
    its own default geometry; only the local cache's staleness bound,
    *ttl*, is the caller's.
    """

    def __init__(self, ttl: float = 1.0) -> None:
        self.sketch = TopKSketch()
        self.cache = HotKeyCache(ttl=ttl)

    def lookup(self, key: Key, now: float) -> Optional[Any]:
        """Record the access and return the fresh local value, if any.

        Only sketch-elected keys are ever served locally; a cold key pays
        one dict miss and proceeds to the normal Algorithm 2 path.
        """
        hot = self.sketch.record(key)
        if not hot:
            return None
        return self.cache.get(key, now)

    def admit(self, key: Key, value: Any, now: float) -> bool:
        """Install a freshly fetched value locally when the key is hot.

        Called at the same moments Algorithm 2 writes back to the new
        owner, so the local copy is never older than the authoritative
        cache copy; True when stored.
        """
        if not self.sketch.is_hot(key):
            return False
        self.cache.store(key, value, now)
        return True

    def invalidate(self, key: Key) -> bool:
        """Digest-style invalidation: a write made the local copy stale."""
        return self.cache.invalidate(key)
