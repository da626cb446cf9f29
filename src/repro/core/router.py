"""Request-routing strategies — the load-distribution column of paper
Table II.

Every router answers one question: *which cache server serves this key when
``n`` of the ``N`` servers are active?*  Routers are deterministic and
self-contained so that independent web servers, given the same configuration,
make identical decisions (paper Section I, objective 3).  Static and Naive
share :class:`NaiveRouter` (``hash(key) mod n``) and differ only in
provisioning, which is why the four scenarios live as one table beside the
testbed (:data:`repro.experiments.testbed.SCENARIOS`), each a router plus a
provisioning rule.

Objective 3 also demands the decision be *efficient* — it runs on every web
request — so the ring-based routers route through the ring's per-epoch
compiled table (:meth:`~repro.core.ring.HashRing.compiled_for`): the
inactive-skip chain is resolved once per ``num_active``, ``route()`` is hash
+ one bisection with zero Python callbacks, and :meth:`RingRouter.route_many`
answers a warm key with one hit in the table's ``{key: owner}`` dict and
only hashes the misses (one vectorized pass for a batch of them) —
bit-identical to walking the ring past inactive servers.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.bloom.hashing import (
    _HASH_MEMO_SIZE,
    SCALAR_BATCH_MAX,
    Key,
    KeyHashes,
    ring_position,
    ring_positions_many,
    stable_hash64,
    stable_hash64_many,
)
from repro.core.placement import place_virtual_nodes
from repro.core.ring import DEFAULT_RING_SIZE, HashRing, VirtualNode
from repro.errors import ConfigurationError, RoutingError


class Router(ABC):
    """Maps keys to cache-server ids (0-based, in provisioning order)."""

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ConfigurationError(f"num_servers must be >= 1, got {num_servers}")
        self.num_servers = num_servers

    def _check_active(self, num_active: int) -> None:
        if not 1 <= num_active <= self.num_servers:
            raise RoutingError(
                f"num_active must be in [1, {self.num_servers}], got {num_active}"
            )

    @abstractmethod
    def route(self, key: Key, num_active: int) -> int:
        """Return the server id (< ``num_active``) serving *key*."""

    def route_hashed(self, hashes: KeyHashes, num_active: int) -> int:
        """:meth:`route` of an already-hashed key (a
        :class:`~repro.bloom.hashing.KeyHashes`: a second epoch reuses its
        bases); identical to ``route(hashes.key, num_active)``."""
        return self.route(hashes.key, num_active)

    def route_many(self, keys: Sequence[Key], num_active: int) -> List[int]:
        """Route a whole key batch; element ``i`` is ``route(keys[i], n)``.

        The sequential loop; subclasses vectorize batches longer than
        :data:`~repro.bloom.hashing.SCALAR_BATCH_MAX`.
        """
        return [self.route(key, num_active) for key in keys]

    def read_plans(
        self, keys: Sequence[Key], num_active: int
    ) -> List[Tuple[int, ...]]:
        """Each key's *read plan*: its distinct owners, in probe order.

        The plan is what Algorithm 2 runs over — probe the owners first to
        last, write back to all of them.  One owner (:meth:`route_many`'s)
        unless the router keeps replicas (:class:`RingRouter`).
        """
        return list(zip(self.route_many(keys, num_active)))  # 1-tuples

    def ceding_servers(self, n_old: int, n_new: int) -> List[int]:
        """Old-mapping owners that may lose keys in ``n_old -> n_new``.

        The digest-broadcast set for a smooth transition: a digest is
        needed from every server that might be the old owner of a
        remapped key.  The conservative default — every old owner — is
        correct for any router; :class:`RingRouter` narrows it to what a
        ring can move.
        """
        self._check_active(n_old)
        self._check_active(n_new)
        return list(range(n_old))


class NaiveRouter(Router):
    """Table II "Naive": ``hash(key) mod n(t)`` over the active servers.

    Rebalancing is perfect inside a slot, but a change ``n -> n+1`` remaps
    ``n/(n+1)`` of all keys (the Reddit incident of Section I), flooding the
    database tier on every transition.
    """

    def route(self, key: Key, num_active: int) -> int:
        self._check_active(num_active)
        return stable_hash64(key) % num_active

    def route_hashed(self, hashes: KeyHashes, num_active: int) -> int:
        self._check_active(num_active)
        return hashes.base64 % num_active

    def route_many(self, keys: Sequence[Key], num_active: int) -> List[int]:
        if len(keys) <= SCALAR_BATCH_MAX:
            return super().route_many(keys, num_active)
        import numpy as np

        self._check_active(num_active)
        return (stable_hash64_many(keys) % np.uint64(num_active)).tolist()


class RingRouter(Router):
    """Routing through a :class:`~repro.core.ring.HashRing`, over
    ``replicas`` rings that share its one placement.

    A warm key routes with one hit in the owner dict of the ring's
    per-epoch compiled table; a new key costs one blake2b key position plus
    one bisection, or one vectorized pass per batch.  Ring ``i``
    hashes keys with an independent hash function (``replica=i`` salt,
    paper Section III-E); the placement — and therefore the balance and
    minimal-migration guarantees — is identical on every ring, and ring 0
    is the primary :meth:`route` answers for.  The fleet is the servers
    with a virtual node on the ring.
    """

    def __init__(self, ring: HashRing, replicas: int = 1) -> None:
        super().__init__(len(ring.servers()))
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.ring = ring
        self.replicas = replicas

    def route(self, key: Key, num_active: int) -> int:
        self._check_active(num_active)
        ring = self.ring
        return ring.compiled_for(num_active).lookup(ring_position(key, ring.size))

    def route_hashed(self, hashes: KeyHashes, num_active: int) -> int:
        self._check_active(num_active)
        ring = self.ring
        return ring.compiled_for(num_active).lookup(
            hashes.ring_position(ring.size)
        )

    def route_many(
        self, keys: Sequence[Key], num_active: int, replica: int = 0
    ) -> List[int]:
        """Each key's owner on ring *replica* (ring 0: the primary).

        A key the table routed before is one hit in its ``{key: owner}``
        dict; only misses are hashed.  The dict is cleared when it would
        pass ``_HASH_MEMO_SIZE`` keys, so the answer is never re-read from it.
        """
        self._check_active(num_active)
        ring = self.ring
        table = ring.compiled_for(num_active)
        memo = table.owners_by_key[replica]
        owners = list(map(memo.get, keys)) if memo else None  # empty: no probe
        if owners and None not in owners:
            return owners
        missing = keys if owners is None else [
            key for key, owner in zip(keys, owners) if owner is None
        ]
        if len(missing) <= SCALAR_BATCH_MAX:
            resolved = [
                table.lookup(ring_position(key, ring.size, replica))
                for key in missing
            ]
        else:
            resolved = table.lookup_many(
                ring_positions_many(missing, ring.size, replica)
            ).tolist()
        if len(memo) + len(missing) > _HASH_MEMO_SIZE:
            memo.clear()
        memo.update(islice(zip(missing, resolved), _HASH_MEMO_SIZE))
        if owners is None:
            return resolved
        fill = iter(resolved)
        return [next(fill) if owner is None else owner for owner in owners]

    def read_plans(
        self, keys: Sequence[Key], num_active: int
    ) -> List[Tuple[int, ...]]:
        plans = list(zip(self.route_many(keys, num_active)))
        for replica in range(1, self.replicas):
            owners = self.route_many(keys, num_active, replica)
            for index, owner in enumerate(owners):
                if owner not in plans[index]:  # replicas may collide (Eq. 3)
                    plans[index] += (owner,)
        return plans

    def replica_servers(self, key: Key, num_active: int) -> List[int]:
        """The owner of *key* on each ring, ring 0 first.  Duplicates are
        *not* removed: Eq. 3 is about how often they occur (the key's read
        plan is the deduplicated form)."""
        return [
            self.route_many((key,), num_active, replica)[0]
            for replica in range(self.replicas)
        ]

    def ceding_servers(self, n_old: int, n_new: int) -> List[int]:
        """A ring only reassigns keys of servers it deactivates, so a
        scale-down cedes exactly the draining servers; a scale-up may
        steal from any old owner."""
        self._check_active(n_old)
        self._check_active(n_new)
        if n_new < n_old:
            return list(range(n_new, n_old))
        return list(range(n_old))


class ConsistentRouter(RingRouter):
    """Table II "Consistent": classic consistent hashing, random virtual nodes.

    Two variants from the paper's evaluation (Fig. 5 / Fig. 9):

    * ``ceil(log2 N)`` virtual nodes per server (no ``total_vnodes``) —
      the common O(log n) deployment;
    * ``total_vnodes=N*N//2`` — the n^2/2 variant the paper uses to give the
      baseline the same vnode budget as Proteus.

    Virtual-node positions are drawn from a seeded PRNG shared by all web
    servers (the paper seeds ``java.util.Random`` with 0 on every web server
    for the same reason).
    """

    def __init__(
        self,
        num_servers: int,
        total_vnodes: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        Router.__init__(self, num_servers)  # validate before sizing the ring
        ring = HashRing(DEFAULT_RING_SIZE)
        rng = random.Random(seed)
        if total_vnodes is None:
            per_server = max(1, math.ceil(math.log2(max(2, num_servers))))
            counts = [per_server] * num_servers
        else:
            if total_vnodes < num_servers:
                raise ConfigurationError(
                    f"total_vnodes must be >= num_servers, got {total_vnodes}"
                )
            base, extra = divmod(total_vnodes, num_servers)
            counts = [base + (1 if s < extra else 0) for s in range(num_servers)]
        # Draw positions exactly as the per-add loop did (same PRNG stream,
        # duplicates redrawn against every node placed so far), then build
        # the ring in one bulk sort instead of ~V^2/2 shifting inserts.
        drawn: set = set()
        nodes: List[VirtualNode] = []
        for server, count in enumerate(counts):
            placed = 0
            while placed < count:
                position = rng.randrange(DEFAULT_RING_SIZE)
                if position in drawn:
                    continue  # duplicate position: redraw
                drawn.add(position)
                nodes.append(VirtualNode(position, server))
                placed += 1
        ring.add_many(nodes)
        super().__init__(ring)

    @classmethod
    def quadratic_variant(cls, num_servers: int, seed: int = 0) -> "ConsistentRouter":
        """The n^2/2-total-virtual-nodes variant (Fig. 5 stars, Fig. 9 triangles)."""
        return cls(num_servers, total_vnodes=max(num_servers, num_servers ** 2 // 2), seed=seed)


class ProteusRouter(RingRouter):
    """Table II "Proteus": Algorithm 1 deterministic virtual-node placement.

    Exactly ``N(N-1)/2 + 1`` virtual nodes; every active prefix owns equal
    key-space; transitions remap the Section II lower bound; ``replicas``
    rings share the one placement (Section III-E).
    """

    def __init__(
        self,
        num_servers: int,
        ring_size: int = DEFAULT_RING_SIZE,
        replicas: int = 1,
    ) -> None:
        self.placement = place_virtual_nodes(num_servers, ring_size)
        super().__init__(self.placement.build_ring(), replicas)
