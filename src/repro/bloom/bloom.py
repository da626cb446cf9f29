"""Plain (non-counting) Bloom filter.

Supports insertion and membership queries with false positives but no
deletions.  The paper's digests are *counting* Bloom filters
(:mod:`repro.bloom.counting`); this plain variant exists because the
``SET_BLOOM_FILTER`` snapshot that a cache server broadcasts to web servers
(Section V-A3) only needs membership queries — web servers never delete —
so snapshotting a counting filter down to a bit array shrinks the broadcast
by a factor of ``b``.

Batch operations (:meth:`BloomFilter.add_many`,
:meth:`BloomFilter.contains_many`) compute all probe indexes in one
vectorized double-hash pass and touch the bit array with ``numpy`` fancy
indexing; results are bit-identical to the scalar loop.  They import numpy
when first called: the scalar path does not need it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bloom.hashing import DoubleHashFamily, Key


class BloomFilter:
    """A fixed-size Bloom filter over ``num_bits`` bits with ``num_hashes`` probes.

    The theoretical false-positive rate after inserting ``kappa`` keys is
    ``(1 - e^(-kappa*h/l))^h`` (paper Eq. 4 with ``l = num_bits``).
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "_family", "count")

    def __init__(self, num_bits: int, num_hashes: int = 4) -> None:
        if num_bits < 1:
            raise ValueError(f"num_bits must be >= 1, got {num_bits}")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._family = DoubleHashFamily(num_hashes, num_bits)
        self._bits = bytearray((num_bits + 7) // 8)
        #: number of keys inserted so far (not deduplicated)
        self.count = 0

    def add(self, key: Key) -> None:
        """Insert *key*."""
        for idx in self._family.indexes(key):
            self._bits[idx >> 3] |= 1 << (idx & 7)
        self.count += 1

    def add_many(self, keys: Iterable[Key]) -> None:
        """Insert a whole key batch — one hash pass, one fancy-index store.

        Identical final bits and count to calling :meth:`add` per key.
        """
        import numpy as np
        keys = list(keys)
        if not keys:
            return
        indexes = self._family.indexes_many(keys).ravel()
        view = np.frombuffer(self._bits, dtype=np.uint8)
        np.bitwise_or.at(
            view, indexes >> 3, (1 << (indexes & 7)).astype(np.uint8)
        )
        self.count += len(keys)

    update = add_many

    def contains(self, key: Key) -> bool:
        """Membership query; may return false positives, never false negatives."""
        bits = self._bits
        return all(
            bits[idx >> 3] & (1 << (idx & 7))
            for idx in self._family.indexes(key)
        )

    __contains__ = contains

    def contains_many(self, keys: Sequence[Key]) -> List[bool]:
        """Vectorized membership: element ``i`` is ``contains(keys[i])``."""
        import numpy as np
        keys = list(keys)
        if not keys:
            return []
        indexes = self._family.indexes_many(keys)
        view = np.frombuffer(self._bits, dtype=np.uint8)
        hit = (view[indexes >> 3] & (1 << (indexes & 7)).astype(np.uint8)) != 0
        return hit.all(axis=1).tolist()

    def size_bytes(self) -> int:
        """Memory used by the bit array (what a digest broadcast costs)."""
        return len(self._bits)

    def to_bytes(self) -> bytes:
        """Serialize the bit array (e.g. for the ``BLOOM_FILTER`` reserved key)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls, payload: bytes, num_bits: int, num_hashes: int = 4
    ) -> "BloomFilter":
        """Deserialize a bit array produced by :meth:`to_bytes`."""
        expected = (num_bits + 7) // 8
        if len(payload) != expected:
            raise ValueError(
                f"payload has {len(payload)} bytes, expected {expected} "
                f"for num_bits={num_bits}"
            )
        bf = cls(num_bits, num_hashes)
        bf._bits = bytearray(payload)
        return bf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"count={self.count})"
        )
