"""Slab memory allocation, memcached-style.

Real memcached does not allocate per item: memory is carved into fixed-size
**pages** (1 MB), each assigned to a **slab class** of a fixed chunk size;
chunk sizes follow a geometric ladder (growth factor 1.25 by default).  An
item occupies one chunk of the smallest class that fits it, so memory
overhead is bounded by the growth factor, and eviction is per-class LRU.

The paper's fixed-object-size assumption (Section II) makes a single class
sufficient for its experiments, but a credible memcached substrate needs the
allocator: the Fig. 6 hit-ratio curve shifts when per-item overhead is
accounted, and variable-size workloads (real Wikipedia pages) only make
sense with classes.  :class:`SlabAllocator` plugs into
:class:`~repro.cache.store.KeyValueStore` as an accounting layer; the
`SlabStore` convenience class wires both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import CapacityError, ConfigurationError

DEFAULT_PAGE_SIZE = 1 << 20   # 1 MB, memcached's default
DEFAULT_MIN_CHUNK = 96        # smallest chunk (item header + tiny value)
DEFAULT_GROWTH = 1.25         # chunk-size ladder factor


@dataclass
class SlabClass:
    """One chunk-size class: its pages and free-chunk accounting."""

    class_id: int
    chunk_size: int
    pages: int = 0
    used_chunks: int = 0

    @property
    def chunks_per_page(self) -> int:
        return max(1, DEFAULT_PAGE_SIZE // self.chunk_size)

    @property
    def total_chunks(self) -> int:
        return self.pages * self.chunks_per_page

    @property
    def free_chunks(self) -> int:
        return self.total_chunks - self.used_chunks


class SlabAllocator:
    """Chunked memory accounting with a geometric class ladder.

    Args:
        capacity_bytes: total memory budget (whole pages are carved from it).
        page_size: bytes per page.
        min_chunk: smallest chunk size.
        growth: ladder factor between consecutive classes.
        max_item_size: largest storable item (defaults to one page).
    """

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        growth: float = DEFAULT_GROWTH,
        max_item_size: Optional[int] = None,
    ) -> None:
        if capacity_bytes < page_size:
            raise ConfigurationError(
                f"capacity {capacity_bytes} smaller than one page {page_size}"
            )
        if growth <= 1.0:
            raise ConfigurationError(f"growth must be > 1, got {growth}")
        if min_chunk < 1:
            raise ConfigurationError(f"min_chunk must be >= 1, got {min_chunk}")
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        self.max_item_size = max_item_size or page_size
        self.classes: List[SlabClass] = []
        size = min_chunk
        class_id = 0
        while size < self.max_item_size:
            self.classes.append(SlabClass(class_id, size))
            size = max(size + 1, int(size * growth))
            class_id += 1
        self.classes.append(SlabClass(class_id, self.max_item_size))
        self._pages_assigned = 0

    # ------------------------------------------------------------- queries

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def pages_free(self) -> int:
        """Pages not yet assigned to any class."""
        return self.capacity_pages - self._pages_assigned

    def class_for(self, item_size: int) -> SlabClass:
        """The smallest class whose chunks fit *item_size*.

        Raises:
            CapacityError: the item exceeds ``max_item_size``.
        """
        if item_size < 0:
            raise ConfigurationError(f"item_size must be >= 0, got {item_size}")
        for slab_class in self.classes:
            if item_size <= slab_class.chunk_size:
                return slab_class
        raise CapacityError(
            f"item of {item_size} bytes exceeds max item size "
            f"{self.max_item_size}"
        )

    def overhead_factor(self, item_size: int) -> float:
        """Chunk bytes per payload byte for items of *item_size*."""
        if item_size <= 0:
            return 1.0
        return self.class_for(item_size).chunk_size / item_size

    def used_bytes(self) -> int:
        """Bytes held by used chunks (chunk-granular accounting)."""
        return sum(c.used_chunks * c.chunk_size for c in self.classes)

    def assigned_bytes(self) -> int:
        """Bytes in pages assigned to classes (page-granular accounting)."""
        return self._pages_assigned * self.page_size

    # ----------------------------------------------------------------- ops

    def allocate(self, item_size: int) -> SlabClass:
        """Take one chunk for an item of *item_size*; returns its class.

        Grows the class by one page when it has no free chunk and unassigned
        pages remain.

        Raises:
            CapacityError: no free chunk and no free page — the caller (the
                store) should evict from the returned class and retry, which
                is exactly memcached's per-class LRU behaviour.
        """
        slab_class = self.class_for(item_size)
        if slab_class.free_chunks == 0:
            if self.pages_free == 0:
                raise CapacityError(
                    f"slab class {slab_class.class_id} "
                    f"(chunk {slab_class.chunk_size}B) is full and no pages "
                    "remain"
                )
            slab_class.pages += 1
            self._pages_assigned += 1
        slab_class.used_chunks += 1
        return slab_class

    def release(self, item_size: int) -> None:
        """Return the chunk held by an item of *item_size*."""
        slab_class = self.class_for(item_size)
        if slab_class.used_chunks == 0:
            raise ConfigurationError(
                f"release on empty slab class {slab_class.class_id}"
            )
        slab_class.used_chunks -= 1

    def stats(self) -> List[dict]:
        """Per-class stats in memcached ``stats slabs`` spirit."""
        return [
            {
                "class": c.class_id,
                "chunk_size": c.chunk_size,
                "pages": c.pages,
                "used_chunks": c.used_chunks,
                "free_chunks": c.free_chunks,
            }
            for c in self.classes
            if c.pages > 0
        ]


class SlabStore:
    """A key-value store with slab allocation and per-class LRU eviction.

    Mirrors :class:`~repro.cache.store.KeyValueStore`'s interface (get /
    set / delete / flush / hooks) but accounts memory the way memcached
    does: an item consumes a whole chunk of its slab class, and when a class
    runs out of chunks with no pages left, eviction happens *within that
    class* — memcached's classic slab-calcification behaviour, observable in
    tests.

    The link/unlink hooks match the plain store's, so a
    :class:`~repro.bloom.counting.CountingBloomFilter` digest attaches
    identically.
    """

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        from repro.cache.eviction import LRUPolicy
        from repro.cache.stats import CacheStats

        self.allocator = SlabAllocator(
            capacity_bytes, page_size=page_size, min_chunk=min_chunk,
            growth=growth,
        )
        self._items: dict = {}
        self._class_lru = {
            c.class_id: LRUPolicy() for c in self.allocator.classes
        }
        self._class_of: dict = {}  # key -> class_id
        self.stats = CacheStats()
        self.link_hooks: list = []
        self.unlink_hooks: list = []

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    @property
    def used_bytes(self) -> int:
        """Chunk-granular memory in use."""
        return self.allocator.used_bytes()

    def peek(self, key: str):
        """Item without touching recency/stats."""
        return self._items.get(key)

    def get(self, key: str, now: float = 0.0):
        """Value for *key* or ``None``; lazily expires.

        Items created later in simulated time are invisible (see
        :meth:`repro.cache.store.KeyValueStore.get`).
        """
        item = self._items.get(key)
        if item is not None and item.expired(now):
            self._unlink(item, "expire")
            self.stats.record_expiration(item.size)
            item = None
        if item is not None and item.created_at > now:
            self.stats.record_get(hit=False)
            return None
        if item is None:
            self.stats.record_get(hit=False)
            return None
        item.touch(now)
        self._class_lru[self._class_of[key]].on_access(key)
        self.stats.record_get(hit=True)
        return item.value

    def set(
        self,
        key: str,
        value,
        now: float = 0.0,
        size: Optional[int] = None,
        ttl: Optional[float] = None,
        flags: int = 0,
    ):
        """Insert/overwrite *key*, evicting within its slab class if needed."""
        from repro.cache.item import CacheItem

        item_size = len(value) if size is None and isinstance(value, (bytes, bytearray)) else (size or 0)
        slab_class = self.allocator.class_for(item_size)  # may raise
        old = self._items.get(key)
        if old is not None:
            self._unlink(old, "delete")
            self.stats.bytes_stored -= old.size
            self.stats.items -= 1
        while True:
            try:
                self.allocator.allocate(item_size)
                break
            except CapacityError:
                victim_key = self._class_lru[slab_class.class_id].victim()
                victim = self._items[victim_key]
                self._unlink(victim, "evict")
                self.stats.record_eviction(victim.size)
        item = CacheItem(
            key=key, value=value, size=item_size, created_at=now,
            last_access=now,
            expires_at=None if ttl is None else now + ttl, flags=flags,
        )
        self._items[key] = item
        self._class_of[key] = slab_class.class_id
        self._class_lru[slab_class.class_id].on_link(key)
        for hook in self.link_hooks:
            hook(item)
        self.stats.record_set(size_delta=item.size, new_item=True)
        return item

    def delete(self, key: str, now: float = 0.0) -> bool:
        """Remove *key*; True if it was present and unexpired."""
        item = self._items.get(key)
        if item is None:
            return False
        if item.expired(now):
            self._unlink(item, "expire")
            self.stats.record_expiration(item.size)
            return False
        self._unlink(item, "delete")
        self.stats.record_delete(item.size)
        return True

    def touch(self, key: str, now: float, expires_at: Optional[float]) -> bool:
        """Re-time *key* to the absolute *expires_at* (``None`` = never);
        False if absent or already expired.  Expiry here stays lazy, so
        there is no index to update."""
        item = self._items.get(key)
        if item is None or item.expired(now):
            return False
        item.expires_at = expires_at
        item.touch(now)
        return True

    def flush(self) -> int:
        """Drop all items (pages stay assigned to their classes)."""
        dropped = list(self._items.values())
        for item in dropped:
            self._unlink(item, "flush")
        self.stats.bytes_stored = 0
        self.stats.items = 0
        return len(dropped)

    def slab_stats(self) -> List[dict]:
        """Per-class allocator stats."""
        return self.allocator.stats()

    def _unlink(self, item, reason: str) -> None:
        self._items.pop(item.key, None)
        class_id = self._class_of.pop(item.key)
        self._class_lru[class_id].on_unlink(item.key)
        self.allocator.release(item.size)
        for hook in self.unlink_hooks:
            hook(item, reason)
