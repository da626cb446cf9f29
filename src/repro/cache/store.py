"""Bounded key-value store that keeps the node's digest in step with it.

This is the in-memory heart of a cache server.  Items live in one
``OrderedDict`` that is also their LRU order: a hit moves its key to the
end, the victim is the first key, and an unlink is one ``del``.  The store
adds a key to the node's counting-Bloom digest where it links an item and
removes it where it unlinks one — memcached's ``do_item_link`` /
``do_item_unlink``, exactly the two functions the paper instruments
(Section V-A3) — so the digest is consistent with the store by
construction.

Expiry is indexed, not scanned: a min-heap of ``(expires_at, key)`` lets
``purge_expired`` — which every ``set`` into a full store runs before it
may evict a live item — answer "nothing is due" in O(1) and reclaim each
due item in O(log n).  Heap entries are never removed in place: an
overwrite, delete or eviction leaves its old entry behind, and
a popped entry is acted on only if its key is still resident with exactly
that ``expires_at``.  Once stale entries outnumber the resident items
(``len(heap) > 2 * len(items) + 64``) the heap is rebuilt from them, which
bounds its memory by the store's own size.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bloom.config import BloomConfig, optimal_config
from repro.bloom.counting import CountingBloomFilter
from repro.cache.item import DEFAULT_ITEM_SIZE, CacheItem
from repro.cache.stats import CacheStats
from repro.errors import CapacityError, ConfigurationError


def default_digest_config(capacity_bytes: Optional[int]) -> BloomConfig:
    """The Section IV-B optimum for the key count *capacity_bytes* holds at
    the paper's 4 KB item (at least 1024 keys; 100 000 when unbounded)."""
    if not capacity_bytes:
        return optimal_config(100_000)
    return optimal_config(max(1024, capacity_bytes // DEFAULT_ITEM_SIZE))


class KeyValueStore:
    """A capacity-bounded, LRU-ordered dict of :class:`CacheItem`.

    Args:
        capacity_bytes: total accounting bytes allowed; ``None`` = unbounded.
        digest: the node's counting Bloom filter, kept equal to the key set;
            ``None`` keeps no digest.
        default_item_size: accounting size used when a set does not specify
            one (the paper's 4 KB page unit).

    Time is supplied by the caller on every operation (``now``), so the same
    store works under the simulation clock and under wall-clock in the
    asyncio server.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        digest: Optional[CountingBloomFilter] = None,
        default_item_size: int = DEFAULT_ITEM_SIZE,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ConfigurationError(
                f"capacity_bytes must be >= 1 or None, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.digest = digest
        self.default_item_size = default_item_size
        #: every item, least recently used first
        self._items: "OrderedDict[str, CacheItem]" = OrderedDict()
        #: lazily-validated min-heap of (expires_at, key); see module doc
        self._expiry: List[Tuple[float, str]] = []
        self._used_bytes = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    @property
    def used_bytes(self) -> int:
        """Accounting bytes currently stored."""
        return self._used_bytes

    def peek(self, key: str) -> Optional[CacheItem]:
        """Item for *key* without touching recency or stats; None if absent."""
        return self._items.get(key)

    # ----------------------------------------------------------------- ops

    def get(self, key: str, now: float = 0.0) -> Optional[Any]:
        """Value for *key*, or ``None`` on miss: :meth:`get_many` of one."""
        item = self.get_many((key,), now).get(key)
        return None if item is None else item.value

    def get_many(
        self, keys: Sequence[str], now: float = 0.0
    ) -> Dict[str, CacheItem]:
        """The items of *keys* that hit, by key — a multiget in one call,
        counted as one get per key (a repeated key included).  Lazily
        expires stale items.

        An item whose ``created_at`` lies in the future of *now* is treated
        as a miss (without unlinking): the simulation driver may process
        time-overlapping requests sequentially, and a write that completes
        at a later simulated time must not be visible to an earlier read —
        otherwise concurrent cache misses for one key (the dog pile) would
        silently free-ride on each other.
        """
        # Expiry test, LRU refresh and counters are inlined, and the
        # counters move once per call: a key costs no frame of its own.
        items, stats = self._items, self.stats
        refresh = items.move_to_end
        hits: Dict[str, CacheItem] = {}
        found = 0
        for key in keys:
            item = items.get(key)
            if item is None:
                continue
            expires_at = item.expires_at
            if expires_at is not None and now >= expires_at:
                self._unlink(item)
                stats.expirations += 1
            elif item.created_at <= now:
                refresh(key)
                hits[key] = item
                found += 1
        stats.gets += len(keys)
        stats.hits += found
        stats.misses += len(keys) - found
        return hits

    def set(
        self,
        key: str,
        value: Any,
        now: float = 0.0,
        size: Optional[int] = None,
        ttl: Optional[float] = None,
        flags: int = 0,
    ) -> CacheItem:
        """Insert or overwrite *key*; returns the linked item.

        An overwrite unlinks the old item and links the new one (memcached
        replaces items rather than mutating them, and the digest counters
        track that).  A *ttl* <= 0 links an item that has already expired
        (memcached's negative ``exptime``).

        Raises:
            CapacityError: the item alone exceeds capacity.
        """
        item_size = self.default_item_size if size is None else size
        capacity = self.capacity_bytes
        if capacity is not None and item_size > capacity:
            raise CapacityError(
                f"item of {item_size} bytes exceeds capacity {capacity}"
            )
        items = self._items
        old = items.get(key)
        if old is not None:
            self._unlink(old)
        if capacity is not None and self._used_bytes + item_size > capacity:
            self._make_room(item_size, now)
        item = CacheItem(
            key=key, value=value, size=item_size, created_at=now,
            expires_at=None if ttl is None else now + ttl, flags=flags,
        )
        items[key] = item
        self._used_bytes += item_size
        if self.digest is not None:
            self.digest.add(key)
        if ttl is not None:
            self._index_expiry(item)
        self.stats.sets += 1
        return item

    def delete(self, key: str, now: float = 0.0) -> bool:
        """Remove *key*; returns True if it was present (and not expired)."""
        item = self._items.get(key)
        if item is None:
            return False
        self._unlink(item)
        if item.expired(now):
            self.stats.expirations += 1
            return False
        self.stats.deletes += 1
        return True

    def purge_expired(self, now: float) -> int:
        """Eagerly remove every expired item; returns how many were removed.

        O(1) when nothing is due, O(log n) per heap entry that is.
        """
        purged = 0
        # Re-read ``self._expiry`` every round: an unlink may compact it.
        while self._expiry and self._expiry[0][0] <= now:
            expires_at, key = heapq.heappop(self._expiry)
            item = self._items.get(key)
            if item is not None and item.expires_at == expires_at:
                self._unlink(item)
                self.stats.expirations += 1
                purged += 1
        return purged

    def flush(self) -> int:
        """Drop everything and clear the digest in one step (power cycle /
        ``flush_all``); returns the item count."""
        dropped = len(self._items)
        self._items.clear()
        self._expiry.clear()
        self._used_bytes = 0
        if self.digest is not None:
            self.digest.clear()
        return dropped

    # ------------------------------------------------------------ internal

    def _make_room(self, needed: int, now: float) -> None:
        """Free *needed* bytes: reclaim the expired, then evict the least
        recently used (``set`` has checked that *needed* fits when empty)."""
        expiry = self._expiry
        if expiry and expiry[0][0] <= now:
            self.purge_expired(now)
        items = self._items
        while self._used_bytes + needed > self.capacity_bytes:
            self._unlink(next(iter(items.values())))
            self.stats.evictions += 1

    def _index_expiry(self, item: CacheItem) -> None:
        heapq.heappush(self._expiry, (item.expires_at, item.key))
        if len(self._expiry) > 2 * len(self._items) + 64:
            self._compact_expiry()

    def _compact_expiry(self) -> None:
        """Rebuild the heap from resident items (stale entries dominate)."""
        self._expiry = [
            (item.expires_at, item.key)
            for item in self._items.values()
            if item.expires_at is not None
        ]
        heapq.heapify(self._expiry)

    def _unlink(self, item: CacheItem) -> None:
        del self._items[item.key]
        self._used_bytes -= item.size
        if self.digest is not None:
            self.digest.remove(item.key)
        if len(self._expiry) > 2 * len(self._items) + 64:
            self._compact_expiry()
