"""Counting Bloom filter — the per-server cache digest (Section IV-A).

Each cache server maintains one counting Bloom filter mirroring its in-cache
key set: inserting a key increments ``h`` counters, deleting decrements them.
Counters are ``b`` bits wide; a counter that would exceed ``2^b - 1``
*saturates* and the event is recorded, because a later decrement of a
saturated counter can drive it below the true count and produce false
negatives — the only false-negative source in the paper's setting
(Section IV-B: "counter overflow ... is the only reason of false negatives").

Deleting a key that was never inserted raises :class:`~repro.errors.DigestError`
in strict mode while no counter has saturated: the paper argues this never
happens because deletions are driven solely by memcached item-unlink events,
so we treat it as a bug rather than corrupting the counters.  After a
saturation a resident key's counter may legitimately read zero — the
tolerated false negative — so the check stands down until :meth:`clear`.

The batch operations (:meth:`CountingBloomFilter.add_many`,
:meth:`~CountingBloomFilter.contains_many`) hash every key in one vectorized
pass; ``add_many`` applies all counter deltas with one ``np.bincount``.
Saturating unit increments commute, so the per-counter results — including
the saturation/overflow accounting — are exactly what the scalar loop
produces.  They and ``snapshot`` import numpy on their first call: a cache
node's per-item ``add`` / ``remove`` run without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.bloom.bloom import BloomFilter
from repro.bloom.hashing import DoubleHashFamily, Key
from repro.errors import DigestError

if TYPE_CHECKING:
    import numpy as np


class CountingBloomFilter:
    """Counting Bloom filter with ``num_counters`` saturating ``counter_bits``-bit counters.

    Args:
        num_counters: ``l`` in the paper — number of counters.
        counter_bits: ``b`` in the paper — bits per counter (counters saturate
            at ``2^b - 1``).
        num_hashes: ``h`` in the paper — probe functions per key.
        strict: raise :class:`DigestError` when removing a key whose counters
            indicate it is absent while no counter has overflowed; if False,
            clamp at zero (lenient mode for reconstructing digests from
            lossy streams).
    """

    __slots__ = (
        "num_counters",
        "counter_bits",
        "num_hashes",
        "strict",
        "_max",
        "_counters",
        "_family",
        "count",
        "overflow_events",
    )

    def __init__(
        self,
        num_counters: int,
        counter_bits: int = 4,
        num_hashes: int = 4,
        strict: bool = True,
    ) -> None:
        if num_counters < 1:
            raise ValueError(f"num_counters must be >= 1, got {num_counters}")
        if counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {counter_bits}")
        self.num_counters = num_counters
        self.counter_bits = counter_bits
        self.num_hashes = num_hashes
        self.strict = strict
        self._max = (1 << counter_bits) - 1
        # One python int per counter; bytearray when counters fit in 8 bits
        # keeps the common configurations (b <= 8) compact.
        self._counters = bytearray(num_counters) if counter_bits <= 8 else [0] * num_counters
        self._family = DoubleHashFamily(num_hashes, num_counters)
        #: net number of keys currently represented (inserts minus removes)
        self.count = 0
        #: how many counter increments hit saturation (each is a potential
        #: future false negative)
        self.overflow_events = 0

    # ------------------------------------------------------------------ ops

    def add(self, key: Key) -> None:
        """Insert *key*, incrementing its ``h`` counters (saturating)."""
        counters = self._counters
        max_val = self._max
        for idx in self._family.indexes(key):
            current = counters[idx]
            if current >= max_val:
                self.overflow_events += 1
            else:
                counters[idx] = current + 1
        self.count += 1

    def remove(self, key: Key) -> None:
        """Delete *key*, decrementing its ``h`` counters.

        Raises:
            DigestError: in strict mode with no overflow yet, when any
                counter for *key* is already zero (deleting an absent
                element).  Once a counter has saturated, a zero is the
                paper's tolerated false negative and clamps instead.
        """
        counters = self._counters
        indexes = self._family.indexes(key)
        # all(map(...)), not a generator: no frame per counter
        if (
            self.strict and not self.overflow_events
            and not all(map(counters.__getitem__, indexes))
        ):
            raise DigestError(f"removing key absent from digest: {key!r}")
        for idx in indexes:
            if counters[idx] > 0:
                counters[idx] -= 1
        self.count = max(0, self.count - 1)

    # ------------------------------------------------------------ batch ops

    def _counter_view(self) -> Optional[np.ndarray]:
        """Writable uint8 view of the counter array, or ``None`` for ``b > 8``."""
        import numpy as np
        if isinstance(self._counters, bytearray):
            return np.frombuffer(self._counters, dtype=np.uint8)
        return None

    def add_many(self, keys: Iterable[Key]) -> None:
        """Insert a key batch: one hash pass, one ``np.bincount`` of deltas.

        Saturating unit increments commute, so for a counter at ``c``
        receiving ``k`` increments the final value is ``min(2^b-1, c+k)``
        and exactly ``max(0, c+k-(2^b-1))`` of them overflow — identical
        counters, ``count``, and ``overflow_events`` to the scalar loop,
        in any order.
        """
        import numpy as np
        keys = list(keys)
        if not keys:
            return
        view = self._counter_view()
        if view is None:  # wide counters: python-int storage, scalar loop
            for key in keys:
                self.add(key)
            return
        indexes = self._family.indexes_many(keys)
        delta = np.bincount(indexes.ravel(), minlength=self.num_counters)
        raised = view.astype(np.int64) + delta
        overflow = raised - self._max
        self.overflow_events += int(overflow[overflow > 0].sum())
        np.minimum(raised, self._max, out=raised)
        view[:] = raised.astype(np.uint8)
        self.count += len(keys)

    update = add_many

    def contains_many(self, keys: Sequence[Key]) -> List[bool]:
        """Vectorized membership: element ``i`` is ``contains(keys[i])``."""
        keys = list(keys)
        if not keys:
            return []
        view = self._counter_view()
        if view is None:
            return [key in self for key in keys]
        indexes = self._family.indexes_many(keys)
        return (view[indexes] > 0).all(axis=1).tolist()

    def contains(self, key: Key) -> bool:
        """Membership query.

        May return false positives (hash collisions) and — after counter
        overflow followed by deletions — false negatives.
        """
        counters = self._counters
        return all(counters[idx] > 0 for idx in self._family.indexes(key))

    __contains__ = contains

    def clear(self) -> None:
        """Reset every counter to zero (server flush)."""
        if isinstance(self._counters, bytearray):
            self._counters = bytearray(self.num_counters)
        else:
            self._counters = [0] * self.num_counters
        self.count = 0
        self.overflow_events = 0

    # -------------------------------------------------------------- export

    def snapshot(self) -> BloomFilter:
        """Collapse to a plain Bloom filter (the ``SET_BLOOM_FILTER`` snapshot).

        Web servers only need membership queries during a transition, so the
        broadcast payload is a bit per counter instead of ``b`` bits.
        """
        import numpy as np
        bf = BloomFilter(self.num_counters, self.num_hashes)
        view = self._counter_view()
        if view is None:
            bits = bf._bits
            for idx, value in enumerate(self._counters):
                if value > 0:
                    bits[idx >> 3] |= 1 << (idx & 7)
        else:
            packed = np.packbits(view > 0, bitorder="little")
            bf._bits = bytearray(packed.tobytes())
        bf.count = self.count
        return bf

    def size_bytes(self) -> int:
        """Approximate memory footprint of the counter array: ``l*b/8``."""
        return (self.num_counters * self.counter_bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountingBloomFilter(l={self.num_counters}, b={self.counter_bits}, "
            f"h={self.num_hashes}, count={self.count})"
        )
