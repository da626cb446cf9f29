"""Hash-function families for Bloom filters and consistent hashing.

The paper uses "4 non-encryption hash functions" (Section VI-B).  We provide a
double-hashing family: two independent 64-bit base hashes ``h1`` and ``h2``
derived from blake2b, combined as ``h1 + i * h2`` to synthesize any number of
index functions (Kirsch & Mitzenmacher, 2006, show this preserves Bloom-filter
asymptotics).  blake2b with distinct salts is overkill speed-wise for a real
memcached but is deterministic across processes and platforms, which the
paper's consistency objective (Section I, objective 3: decisions must agree
across all web servers) makes mandatory.

Hot-path layout (Section I, objective 3 — the decision runs on every web
request):

* :func:`stable_hash64` hashes through a per-salt *template* blake2b object
  that is built once and ``copy()``-ed per key — the salted parameter block
  is parsed once instead of on every call, which roughly halves the cost of
  a hash while producing bit-identical digests.
* Every ``(key, salt)`` result is memoized in a bounded LRU
  (:data:`_HASH_MEMO_SIZE` entries).  The hash is a pure function, so the
  memo cannot change any decision.  A warm key's ring routing no longer
  reaches it — the compiled ring table keeps its own ``{key: owner}`` dict
  (:meth:`~repro.core.router.RingRouter.route_many`) — so the memo serves
  what is left: ring-routing misses, the modulo routers, database shards,
  the hot-key sketch and the batched digest bases.
* :func:`stable_hash64_many` hashes a whole key batch into one ``numpy``
  ``uint64`` array through the same memo.  The ``*_many`` functions import
  numpy on their first call: a cache node hashes key by key, without it.
* A digest's per-key probe (:meth:`DoubleHashFamily.indexes`) hashes its
  two bases straight through blake2b: a node links and unlinks a key once
  each, so the memo would only cost.
* :class:`KeyHashes` memoizes the modulo-hash base and the ring base per
  replica of one key, so routing it under two epochs costs at most one
  blake2b per base.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    import numpy as np

Key = Union[str, bytes]

_MASK64 = (1 << 64) - 1

#: Entries in the salted-hash memo, and in each compiled ring table's
#: ``{key: owner}`` dict: web traffic routes the same hot keys over and over
#: (that is what makes a memory cache worth running).
_HASH_MEMO_SIZE = 1 << 16

#: Salt of the digest double-hash base ``h1`` (see :class:`DoubleHashFamily`).
DIGEST_SALT_H1 = 0x51
#: Salt of the digest double-hash base ``h2``.
DIGEST_SALT_H2 = 0x52
#: Salt of ring replica 0 (see :func:`ring_position`).
RING_SALT_BASE = 0x100


def _as_bytes(key: Key) -> bytes:
    """Normalize a key to bytes (UTF-8 for text keys)."""
    if isinstance(key, bytes):
        return key
    return key.encode("utf-8")


#: Per-salt blake2b templates; ``template.copy()`` is ~2x cheaper than
#: re-parsing the salted parameter block in the constructor, and the digest
#: is bit-identical, so every historical routing decision is preserved.
_TEMPLATES: Dict[int, "hashlib._Hash"] = {}


def _template(salt: int) -> "hashlib._Hash":
    template = _TEMPLATES.get(salt)
    if template is None:
        template = hashlib.blake2b(
            digest_size=8, salt=salt.to_bytes(8, "little")
        )
        _TEMPLATES[salt] = template
    return template


_DIGEST_H1 = _template(DIGEST_SALT_H1)
_DIGEST_H2 = _template(DIGEST_SALT_H2)


@lru_cache(maxsize=_HASH_MEMO_SIZE)
def _hash64_memo(key: Key, salt: int) -> int:
    digest = _template(salt).copy()
    digest.update(_as_bytes(key))
    return int.from_bytes(digest.digest(), "little")


def stable_hash64(key: Key, salt: int = 0) -> int:
    """Return a deterministic 64-bit hash of *key*.

    Unlike the built-in :func:`hash`, the result does not depend on
    ``PYTHONHASHSEED``, so every web server computes the same value — the
    consistency requirement of Section I.

    The hash is a pure function of ``(key, salt)``, so results are memoized
    in a bounded LRU: repeat routings of a hot key (the common case for a
    memory-cache web tier) cost a dict hit instead of a blake2b.

    Args:
        key: text or bytes key.
        salt: selects an independent function from the family.
    """
    return _hash64_memo(key, salt)


#: Longest batch the ``*_many`` callers answer with their scalar loop
#: instead of a vectorized pass.  The numpy set-up costs a fixed 7-40 us
#: per call, so a short batch is cheaper key by key — and every simulated
#: fetch is a batch of one.  Measured crossover for Proteus ring routing:
#: ~16 keys per batch (Python 3.11); raising the constant moves the
#: per-layer call counts the end-to-end benchmark traces, so it is a
#: measured change of its own.  Scalar and vectorized forms are pinned
#: bit-identical by
#: ``tests/property/test_fastpath_properties.py``.
SCALAR_BATCH_MAX = 1


def stable_hash64_many(keys: Sequence[Key], salt: int = 0) -> np.ndarray:
    """Vectorized :func:`stable_hash64`: one ``uint64`` per key.

    Value ``i`` equals ``stable_hash64(keys[i], salt)`` exactly.  Hashes go
    through the same salted-hash memo as the scalar form, so a batch over a
    warm working set is one dict hit per key and a cold batch fills the memo
    for every later scalar or batch call.
    """
    import numpy as np
    return np.fromiter(
        map(_hash64_memo, keys, repeat(salt)), dtype=np.uint64,
        count=len(keys),
    )


class KeyHashes:
    """The routing bases of one key, computed at most once each.

    Routing a key under the new and the old epoch starts from the same
    salted blake2b, so each base is computed lazily on first use and
    reused after that — values are bit-identical to calling
    :func:`stable_hash64` directly.
    """

    __slots__ = ("key", "_base", "_rings")

    def __init__(self, key: Key) -> None:
        self.key = key
        self._base: Optional[int] = None
        self._rings: Optional[Dict[int, int]] = None

    @property
    def base64(self) -> int:
        """``stable_hash64(key)`` — the modulo-router base (salt 0)."""
        if self._base is None:
            self._base = stable_hash64(self.key)
        return self._base

    def ring_position(self, ring_size: int, replica: int = 0) -> int:
        """:func:`ring_position` with the replica base hashed only once."""
        rings = self._rings
        if rings is None:
            rings = self._rings = {}
        base = rings.get(replica)
        if base is None:
            base = rings[replica] = stable_hash64(
                self.key, salt=RING_SALT_BASE + replica
            )
        return base % ring_size


def digest_bases_many(keys: Sequence[Key]) -> Tuple[np.ndarray, np.ndarray]:
    """Batched double-hash bases: ``(h1[], h2[])`` for a whole key set."""
    import numpy as np
    h1 = stable_hash64_many(keys, salt=DIGEST_SALT_H1)
    h2 = stable_hash64_many(keys, salt=DIGEST_SALT_H2) | np.uint64(1)
    return h1, h2


class DoubleHashFamily:
    """A family of ``h`` index functions over ``[0, size)`` via double hashing.

    ``index_i(key) = (h1(key) + i * h2(key)) mod size`` with ``h2`` forced odd
    so that for power-of-two sizes the stride is invertible and the ``h``
    probe positions are distinct with high probability.
    """

    def __init__(self, num_hashes: int, size: int) -> None:
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.num_hashes = num_hashes
        self.size = size

    def indexes(self, key: Key) -> List[int]:
        """The ``num_hashes`` probe positions for *key*, hashed without the
        memo (a digest links and unlinks a key once each way)."""
        data = key if isinstance(key, bytes) else key.encode("utf-8")
        first, second = _DIGEST_H1.copy(), _DIGEST_H2.copy()
        first.update(data)
        second.update(data)
        h1 = int.from_bytes(first.digest(), "little")
        h2 = int.from_bytes(second.digest(), "little") | 1
        size = self.size
        return [((h1 + i * h2) & _MASK64) % size for i in range(self.num_hashes)]

    def indexes_many(self, keys: Sequence[Key]) -> np.ndarray:
        """Probe positions for a key batch: shape ``(len(keys), num_hashes)``.

        Row ``i`` equals ``indexes(keys[i])`` exactly — ``uint64`` wrap-around
        in numpy matches the scalar ``& _MASK64``.
        """
        import numpy as np
        h1, h2 = digest_bases_many(keys)
        strides = np.arange(self.num_hashes, dtype=np.uint64)
        mixed = h1[:, None] + strides[None, :] * h2[:, None]
        return (mixed % np.uint64(self.size)).astype(np.int64)


def ring_position(key: Key, ring_size: int, replica: int = 0) -> int:
    """Hash *key* onto a consistent-hashing ring of ``ring_size`` positions.

    ``replica`` selects an independent ring (Section III-E fault tolerance
    uses ``r`` rings with ``r`` different hash functions).
    """
    if ring_size < 1:
        raise ValueError(f"ring_size must be >= 1, got {ring_size}")
    return stable_hash64(key, salt=RING_SALT_BASE + replica) % ring_size


def ring_positions_many(
    keys: Sequence[Key], ring_size: int, replica: int = 0
) -> np.ndarray:
    """Vectorized :func:`ring_position` over a key batch (``int64`` array)."""
    import numpy as np
    if ring_size < 1:
        raise ValueError(f"ring_size must be >= 1, got {ring_size}")
    hashes = stable_hash64_many(keys, salt=RING_SALT_BASE + replica)
    return (hashes % np.uint64(ring_size)).astype(np.int64)
