"""Generic consistent-hashing ring with subset-aware lookups.

The ring stores virtual nodes as ``(position, server)`` pairs.  A key hashed
to position ``k`` is served by the owner of the first virtual-node position
*strictly greater than* ``k``, walking clockwise (wrapping at the ring size),
restricted to servers that are currently active.  Equivalently, a virtual
node at position ``p`` hosts the key range ``[pred(p), p)`` — the "host
range" between it and its direct predecessor (paper Section III-B).

With this convention a virtual node whose assigned host range is
``[start, start+len)`` sits at ring position ``start+len``, and when its
server powers off, the range drains to the next active virtual node
clockwise — which the Proteus placement (Algorithm 1) arranges to be exactly
the lender the range was borrowed from.

**Compiled lookups.**  :meth:`HashRing.lookup` re-resolves the
inactive-skip chain through a Python predicate on every call — fine for
construction-time queries, too slow for the per-request hot path
(Section I, objective 3 demands the decision be *efficient*).
:meth:`HashRing.compile` resolves the chain *once* into a
:class:`CompiledRingTable`: a flat sorted integer position array plus a
parallel pre-resolved owner array, so a lookup is one bisection with zero
Python callbacks and a batch of lookups is one vectorized
``np.searchsorted``.  :meth:`HashRing.compiled_for` caches one table per
``num_active`` prefix (an LRU over the old/new epochs in force), and each
table keeps, per ring replica, the ``{key: owner}`` answers routed through
it, so a warm key routes with one dict hit.  The compiled table is an
equivalent *representation*, not a new policy: for every integer position
it returns exactly what :meth:`lookup` returns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, RoutingError

Position = Union[int, Fraction]

#: Default key-space size for consistent-hashing rings.  2^32 matches common
#: memcached client libraries (e.g. spymemcached's ketama ring).
DEFAULT_RING_SIZE = 2 ** 32

#: Compiled tables cached per ring (one per recent ``num_active``); two
#: epochs are in force during a transition, the rest is headroom for
#: schedules that oscillate.
_COMPILED_CACHE_SIZE = 8


@dataclass(frozen=True, order=True)
class VirtualNode:
    """A virtual node: a ring position owned by a physical server."""

    position: Position
    server: int


class CompiledRingTable:
    """One activity set's lookup structure, resolved ahead of time.

    ``bounds[i]`` is ``ceil(position_i)`` of the ``i``-th virtual node (ring
    order) and ``owners[i]`` is the *pre-resolved* owner of the arc ending
    at that node — the first active server at or clockwise-after node ``i``.
    For an **integer** query position ``k`` (key hashes are integers),
    ``position_i > k  iff  ceil(position_i) > k``, and two distinct exact
    positions sharing a ceil admit no integer strictly between them, so
    ``bisect_right`` over the ceils lands on exactly the node the exact-
    arithmetic :meth:`HashRing.lookup` would pick — bit-identical owners
    with no :class:`~fractions.Fraction` comparisons on the hot path.
    ``owners_by_key[replica]`` is the ``{key: owner}`` memo that
    :meth:`~repro.core.router.RingRouter.route_many` keeps on ring *replica*.
    """

    __slots__ = ("size", "_bounds", "_owners", "_bounds_np", "_owners_np",
                 "owners_by_key")

    def __init__(self, size: int, bounds: List[int], owners: List[int]) -> None:
        self.size = size
        self._bounds = bounds
        self._owners = owners
        self._bounds_np = np.asarray(bounds, dtype=np.int64)
        self._owners_np = np.asarray(owners, dtype=np.int64)
        self.owners_by_key: Dict[int, dict] = defaultdict(dict)

    def __len__(self) -> int:
        return len(self._bounds)

    def lookup(self, position: int) -> int:
        """Owner of integer *position* — one bisection, no callbacks."""
        bounds = self._bounds
        index = bisect_right(bounds, position % self.size)
        if index == len(bounds):
            index = 0
        return self._owners[index]

    def lookup_many(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup` over an integer position array."""
        indexes = np.searchsorted(
            self._bounds_np, positions % self.size, side="right"
        )
        indexes[indexes == len(self._bounds)] = 0
        return self._owners_np[indexes]


class HashRing:
    """A consistent-hashing ring over positions ``[0, size)``.

    Virtual nodes may be added in any order; lookups are ``O(log V)`` via
    bisection plus a clockwise scan past inactive servers (``O(V)`` worst
    case, short in practice because inactive runs are short).  Request
    routing should go through :meth:`compiled_for`, which eliminates the
    scan entirely.

    Args:
        size: key-space size ``K``; positions live in ``[0, size)``.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"ring size must be >= 1, got {size}")
        self.size = size
        self._nodes: List[VirtualNode] = []  # kept sorted by position
        self._positions: List[Position] = []  # parallel sorted positions
        self._compiled: Dict[int, CompiledRingTable] = {}  # num_active -> table

    # ----------------------------------------------------------- mutation

    def add(self, position: Position, server: int) -> None:
        """Place one virtual node for *server* at *position* (mod ring size)."""
        pos = position % self.size
        node = VirtualNode(pos, server)
        idx = bisect_right(self._positions, pos)
        # Reject exact duplicates: two vnodes at one position make ownership
        # order-dependent, which breaks cross-web-server consistency.
        if idx > 0 and self._positions[idx - 1] == pos:
            raise ConfigurationError(f"duplicate virtual node position {pos}")
        self._positions.insert(idx, pos)
        self._nodes.insert(idx, node)
        self._compiled.clear()

    def add_many(self, nodes: Sequence[VirtualNode]) -> None:
        """Bulk-add virtual nodes: one sort instead of V shifting inserts.

        Equivalent to calling :meth:`add` per node but ``O(V log V)``
        total instead of ``O(V^2)``, and atomic — a duplicate position
        raises :class:`~repro.errors.ConfigurationError` without mutating
        the ring.
        """
        if not nodes:
            return
        merged = list(self._nodes)
        merged.extend(
            VirtualNode(node.position % self.size, node.server)
            for node in nodes
        )
        merged.sort(key=lambda node: node.position)
        for left, right in zip(merged, merged[1:]):
            if left.position == right.position:
                raise ConfigurationError(
                    f"duplicate virtual node position {right.position}"
                )
        self._nodes = merged
        self._positions = [node.position for node in merged]
        self._compiled.clear()

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._nodes)

    def servers(self) -> List[int]:
        """Distinct server ids present on the ring, ascending."""
        return sorted({node.server for node in self._nodes})

    def lookup(
        self, position: Position, is_active: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Return the server owning *position*, skipping inactive servers.

        Args:
            position: key position on the ring.
            is_active: predicate over server ids; ``None`` means all active.

        Raises:
            RoutingError: the ring is empty or no active server exists.
        """
        count = len(self._nodes)
        if count == 0:
            raise RoutingError("lookup on an empty ring")
        pos = position % self.size
        start = bisect_right(self._positions, pos)
        if is_active is None:
            return self._nodes[start % count].server
        for offset in range(count):
            node = self._nodes[(start + offset) % count]
            if is_active(node.server):
                return node.server
        raise RoutingError("no active server on the ring")

    # ---------------------------------------------------------- compiling

    def compile(
        self, is_active: Optional[Callable[[int], bool]] = None
    ) -> CompiledRingTable:
        """Resolve the inactive-skip chain once into a flat lookup table.

        The predicate is evaluated ``V`` times here and never again: the
        returned table answers every integer-position lookup with one
        bisection (or one ``searchsorted`` for a batch) and is bit-identical
        to :meth:`lookup` under the same predicate.

        Raises:
            RoutingError: the ring is empty or no active server exists.
        """
        count = len(self._nodes)
        if count == 0:
            raise RoutingError("lookup on an empty ring")
        if is_active is None:
            active = [True] * count
        else:
            active = [is_active(node.server) for node in self._nodes]
            if not any(active):
                raise RoutingError("no active server on the ring")
        owners = [0] * count
        # Two backward sweeps resolve "first active at/after i, wrapping":
        # the first seeds the wrap-around owner, the second fixes the tail.
        resolved: Optional[int] = None
        for _ in range(2):
            for index in range(count - 1, -1, -1):
                if active[index]:
                    resolved = self._nodes[index].server
                owners[index] = resolved  # type: ignore[assignment]
        bounds = [
            pos if isinstance(pos, int) else math.ceil(pos)
            for pos in self._positions
        ]
        return CompiledRingTable(self.size, bounds, owners)

    def compiled_for(self, num_active: int) -> CompiledRingTable:
        """The compiled table for the ``server < num_active`` activity set.

        Cached per ``num_active`` (bounded LRU; mutation clears it), so the
        two epochs in force during a transition each compile once and every
        subsequent ``route()`` is hash + bisect.
        """
        table = self._compiled.pop(num_active, None)
        if table is None:
            table = self.compile(prefix_active(num_active))
            if len(self._compiled) >= _COMPILED_CACHE_SIZE:
                # Evict the least recently used (a hit re-inserts at the end).
                self._compiled.pop(next(iter(self._compiled)))
        self._compiled[num_active] = table
        return table

    def owned_lengths(
        self, is_active: Optional[Callable[[int], bool]] = None
    ) -> Dict[int, Position]:
        """Total host-range length owned by each active server.

        Sums, for every arc between consecutive virtual-node positions, the
        arc length into the bucket of the active server that owns it.  The
        values sum to the ring size; this is what the balance condition (BC)
        constrains to be equal across active servers.
        """
        count = len(self._nodes)
        if count == 0:
            return {}
        owned: Dict[int, Position] = {}
        positions = self._positions
        for idx in range(count):
            prev_pos = positions[idx - 1] if idx > 0 else positions[-1] - self.size
            arc = positions[idx] - prev_pos
            if arc == 0:
                continue
            owner = self._owner_from(idx, is_active)
            owned[owner] = owned.get(owner, 0) + arc
        return owned

    def _owner_from(
        self, index: int, is_active: Optional[Callable[[int], bool]]
    ) -> int:
        """Owner of the arc ending at vnode *index*: first active vnode at/after it."""
        count = len(self._nodes)
        if is_active is None:
            return self._nodes[index].server
        for offset in range(count):
            node = self._nodes[(index + offset) % count]
            if is_active(node.server):
                return node.server
        raise RoutingError("no active server on the ring")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(size={self.size}, vnodes={len(self._nodes)})"


def prefix_active(num_active: int) -> Callable[[int], bool]:
    """Activity predicate for the fixed provisioning order (Section III-A).

    Servers are numbered ``0..N-1`` in provisioning order (the paper's
    ``s1..sN``); the first ``num_active`` of them are on.
    """
    if num_active < 1:
        raise ConfigurationError(f"num_active must be >= 1, got {num_active}")
    return lambda server: server < num_active
