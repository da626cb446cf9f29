"""Properties of the compiled/vectorized hot path.

The compiled ring table, the batched router entry points, the memoized
:class:`~repro.bloom.hashing.KeyHashes`, and the vectorized Bloom-filter
batch operations are all *representations* of existing decision procedures,
not new policies — so each property here pins an exact equivalence against
the scalar reference implementation:

* compiled-table lookups == ``HashRing.lookup`` for random rings (integer
  and Fraction positions), every ``num_active`` prefix, and arbitrary
  activity sets;
* ``route_many`` / ``route_hashed`` == per-key ``route`` for all routers;
* the ring routers' memoized ``route_many`` / ``read_plans`` == the
  uncompiled ``HashRing.lookup`` — cold, warm, after a ring mutation and
  across a mid-batch clear of the owner dict;
* vectorized ``add_many`` / ``contains_many`` == scalar loops, including
  saturation/overflow accounting, and a snapshot's one-pass ``contains``
  == its bits at :meth:`~repro.bloom.hashing.DoubleHashFamily.indexes`;
* ``Transition.digest_hit_many`` == per-key ``digest_hit``;
* a counting filter's bare-key ``add`` / ``remove`` (hashed straight
  through blake2b, no memo) == the memoized batch path's probes.

The batch entry points answer a batch no longer than
:data:`~repro.bloom.hashing.SCALAR_BATCH_MAX` key by key, so their
properties check both branches (:data:`BRANCHES`): with the constant at
0, every batch is vectorized, and at its value.
"""

from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import hashing
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.hashing import KeyHashes, ring_position
from repro.core import router as router_module
from repro.core.ring import HashRing, VirtualNode, prefix_active
from repro.core.router import (
    ConsistentRouter,
    NaiveRouter,
    ProteusRouter,
)
from repro.core.transition import Transition
from repro.errors import DigestError
from tests.conftest import ring_owner, snapshot_of

keys = st.text(min_size=1, max_size=24)
key_lists = st.lists(keys, max_size=30)

#: The short-batch constant at 0 (every batch takes numpy) and at its
#: value (a batch up to it takes the scalar loop), each with fresh routers.
BRANCHES = (0, hashing.SCALAR_BATCH_MAX)


def branch(scalar_max):
    """The batch entry points read the constant through ``hashing``."""
    return mock.patch.object(hashing, "SCALAR_BATCH_MAX", scalar_max)


# ----------------------------------------------------------- compiled tables


@st.composite
def rings(draw):
    """A random ring: int or Fraction positions, arbitrary server ids."""
    size = draw(st.integers(min_value=4, max_value=2 ** 16))
    count = draw(st.integers(min_value=1, max_value=min(24, size)))
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=count, max_size=count, unique=True,
        )
    )
    use_fractions = draw(st.booleans())
    if use_fractions:
        denominators = draw(
            st.lists(
                st.integers(min_value=1, max_value=7),
                min_size=count, max_size=count,
            )
        )
        numerators = draw(
            st.lists(
                st.integers(min_value=0, max_value=6),
                min_size=count, max_size=count,
            )
        )
        positions = sorted(
            {
                (pos + Fraction(num % den, den)) % size
                for pos, num, den in zip(positions, numerators, denominators)
            }
        )
    servers = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=len(positions), max_size=len(positions),
        )
    )
    ring = HashRing(size)
    ring.add_many(
        [VirtualNode(pos, srv) for pos, srv in zip(positions, servers)]
    )
    return ring


@given(
    ring=rings(),
    active_set=st.sets(st.integers(min_value=0, max_value=9)),
    probes=st.lists(st.integers(min_value=0, max_value=2 ** 17), max_size=30),
)
@settings(max_examples=120, deadline=None)
def test_compiled_table_matches_lookup_for_arbitrary_activity(
    ring, active_set, probes
):
    on_ring = {node.server for node in ring._nodes}
    if not (active_set & on_ring):
        active_set = on_ring  # guarantee at least one active server
    is_active = lambda server: server in active_set
    table = ring.compile(is_active)
    batch = (
        table.lookup_many(np.asarray(probes, dtype=np.int64)).tolist()
        if probes
        else []
    )
    for position, from_batch in zip(probes, batch):
        expected = ring_owner(ring, position, is_active)
        assert table.lookup(position) == expected
        assert from_batch == expected


@given(num_servers=st.integers(min_value=1, max_value=16), batch=key_lists)
@settings(max_examples=60, deadline=None)
def test_compiled_table_matches_lookup_for_every_prefix(num_servers, batch):
    router = ProteusRouter(num_servers, ring_size=2 ** 20)
    ring = router.ring
    for num_active in range(1, num_servers + 1):
        table = ring.compiled_for(num_active)
        predicate = prefix_active(num_active)
        for key in batch:
            position = ring_position(key, ring.size)
            assert table.lookup(position) == ring_owner(ring, position, predicate)


# ------------------------------------------------------------- batch routing


@given(
    num_servers=st.integers(min_value=1, max_value=12),
    batch=key_lists,
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_route_many_and_route_hashed_match_route(num_servers, batch, data):
    num_active = data.draw(
        st.integers(min_value=1, max_value=num_servers)
    )
    for scalar_max in BRANCHES:
        routers = [
            NaiveRouter(num_servers),
            ConsistentRouter(num_servers),
            ProteusRouter(num_servers, ring_size=2 ** 20),
            ProteusRouter(num_servers, 2 ** 20, replicas=2),
        ]
        with branch(scalar_max):
            _check_route_many(routers, num_active, batch)


def _check_route_many(routers, num_active, batch):
    for router in routers:
        expected = [router.route(key, num_active) for key in batch]
        assert router.route_many(batch, num_active) == expected
        for key, want in zip(batch, expected):
            assert router.route_hashed(KeyHashes(key), num_active) == want


@given(
    num_servers=st.integers(min_value=1, max_value=10),
    replicas=st.integers(min_value=1, max_value=3),
    batch=st.lists(keys, min_size=1, max_size=15),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_read_plan_matches_replica_servers(num_servers, replicas, batch, data):
    num_active = data.draw(st.integers(min_value=1, max_value=num_servers))
    for scalar_max in BRANCHES:
        router = ProteusRouter(num_servers, 2 ** 20, replicas=replicas)
        with branch(scalar_max):
            _check_read_plans(router, num_servers, num_active, batch)


def _check_read_plans(router, num_servers, num_active, batch):
    plans = router.read_plans(batch, num_active)
    assert len(plans) == len(batch)
    for key, plan in zip(batch, plans):
        owners = router.replica_servers(key, num_active)
        assert len(owners) == router.replicas
        assert plan[0] == owners[0] == router.route(key, num_active)
        assert list(plan) == list(dict.fromkeys(owners))  # deduped, ring order
        assert router.read_plans([key], num_active) == [plan]
        hashes = KeyHashes(key)
        assert owners == [
            router.ring.compiled_for(num_active).lookup(
                hashes.ring_position(2 ** 20, replica=ring)
            )
            for ring in range(router.replicas)
        ]
    # The base class's plan is the one owner route_many answers with.
    naive = NaiveRouter(num_servers)
    assert naive.read_plans(batch, num_active) == [
        (owner,) for owner in naive.route_many(batch, num_active)
    ]


# ------------------------------------------------- memoized ring routing


def _ring_owners(router, batch, num_active, replica):
    """The uncompiled reference: hash, then walk the ring past inactives."""
    ring = router.ring
    return [
        ring_owner(
            ring, ring_position(key, ring.size, replica),
            prefix_active(num_active),
        )
        for key in batch
    ]


@given(
    num_servers=st.integers(min_value=1, max_value=8),
    replicas=st.sampled_from([1, 2]),
    pool=st.lists(
        keys | st.binary(min_size=1, max_size=24), min_size=1, max_size=12
    ),
    bound=st.none() | st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_memoized_route_many_matches_the_uncompiled_ring(
    num_servers, replicas, pool, bound, data
):
    # Cold, mixed (a warm prefix plus misses), warm, and after a ring
    # mutation; a small bound forces the owner dict to clear mid-batch,
    # so a batch's earlier hits must not be re-read from the cleared dict.
    batch = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    num_active = data.draw(st.integers(min_value=1, max_value=num_servers))
    position = data.draw(st.integers(0, 2 ** 20 - 1))  # the mutation's
    memo_bound = router_module._HASH_MEMO_SIZE if bound is None else bound
    for scalar_max in BRANCHES:
        router = ProteusRouter(num_servers, 2 ** 20, replicas=replicas)
        with mock.patch.object(
            router_module, "_HASH_MEMO_SIZE", memo_bound
        ), branch(scalar_max):
            _check_memoized_steps(
                router, batch, num_active, position, memo_bound
            )


def _check_memoized_steps(router, batch, num_active, position, memo_bound):
    replicas = router.replicas
    for step in ("cold", "mixed", "warm", "mutated"):
        if step == "mutated":
            if all(node.position != position for node in router.ring._nodes):
                router.ring.add(position, server=router.num_servers - 1)
        routed = batch[: len(batch) // 2] if step == "cold" else batch
        expected = [
            _ring_owners(router, routed, num_active, replica)
            for replica in range(replicas)
        ]
        for replica in range(replicas):
            assert router.route_many(routed, num_active, replica) == (
                expected[replica]
            )
        assert router.read_plans(routed, num_active) == [
            tuple(dict.fromkeys(owners)) for owners in zip(*expected)
        ]
        table = router.ring.compiled_for(num_active)
        assert all(
            len(memo) <= memo_bound
            for memo in table.owners_by_key.values()
        )


# ------------------------------------------------------------ bloom batches


def _state(cbf):
    return (bytes(cbf._counters), cbf.count, cbf.overflow_events)


@given(
    num_bits=st.integers(min_value=1, max_value=256),
    num_hashes=st.integers(min_value=1, max_value=5),
    inserts=key_lists,
    probes=key_lists,
)
@settings(max_examples=80, deadline=None)
def test_bloom_batch_matches_scalar(num_bits, num_hashes, inserts, probes):
    digest = snapshot_of(inserts, num_bits, num_hashes)
    bits = digest.to_bytes()
    # The wire format: a key is in when every probe position's bit is set.
    expected = [
        all(bits[i >> 3] >> (i & 7) & 1 for i in digest._family.indexes(key))
        for key in probes + inserts
    ]
    assert [key in digest for key in probes + inserts] == expected
    assert expected[len(probes):] == [True] * len(inserts)
    assert digest.contains_many(probes) == expected[: len(probes)]


@given(
    num_bits=st.integers(min_value=1, max_value=256),
    num_hashes=st.integers(min_value=1, max_value=5),
    members=st.lists(key_lists, min_size=1, max_size=3),
    probes=st.lists(keys, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_digest_hit_many_matches_digest_hit(
    num_bits, num_hashes, members, probes
):
    # Server i broadcast the digest of members[i]; the last server sent
    # none, so its keys read all-False.
    digests = {
        server: snapshot_of(claims, num_bits, num_hashes)
        for server, claims in enumerate(members)
    }
    transition = Transition(len(members) + 1, 1, 0.0, 60.0, digests)
    for scalar_max, server in product(BRANCHES, range(len(members) + 1)):
        batch = probes + members[server] if server in digests else probes
        with branch(scalar_max):
            assert transition.digest_hit_many(server, batch) == [
                transition.digest_hit(server, key) for key in batch
            ]


@given(
    num_counters=st.integers(min_value=1, max_value=64),
    counter_bits=st.integers(min_value=1, max_value=8),
    num_hashes=st.integers(min_value=1, max_value=5),
    inserts=st.lists(keys, max_size=60),
    probes=key_lists,
)
@settings(max_examples=100, deadline=None)
def test_counting_add_many_matches_scalar_with_overflow(
    num_counters, counter_bits, num_hashes, inserts, probes
):
    # Tiny geometries force probe collisions, saturation, and overflow.
    scalar = CountingBloomFilter(num_counters, counter_bits, num_hashes)
    batch = CountingBloomFilter(num_counters, counter_bits, num_hashes)
    for key in inserts:
        scalar.add(key)
    batch.add_many(inserts)
    assert _state(scalar) == _state(batch)
    assert batch.contains_many(probes) == [key in scalar for key in probes]
    assert bytes(scalar.snapshot().to_bytes()) == bytes(
        batch.snapshot().to_bytes()
    )


@given(
    num_counters=st.integers(min_value=1, max_value=64),
    counter_bits=st.integers(min_value=1, max_value=8),
    num_hashes=st.integers(min_value=1, max_value=5),
    inserts=st.lists(keys | st.binary(min_size=1, max_size=24), max_size=60),
    removes=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_counting_bare_key_ops_match_the_memoized_batch_path(
    num_counters, counter_bits, num_hashes, inserts, removes
):
    # A cache node's add/remove hash a bare key without the memo; the batch
    # path hashes through it.  The probe positions, and so every counter,
    # must not move.
    direct, batch = (
        CountingBloomFilter(num_counters, counter_bits, num_hashes)
        for _ in range(2)
    )
    for key in inserts:
        direct.add(key)
    batch.add_many(inserts)
    assert _state(direct) == _state(batch)
    picks = removes.draw(st.lists(st.sampled_from(inserts))) if inserts else []
    for key in picks:
        assert direct._family.indexes(key) == (
            batch._family.indexes_many([key])[0].tolist()
        )
        outcomes = []
        for cbf in (direct, batch):
            try:
                cbf.remove(key)
                outcomes.append("removed")
            except DigestError:  # saturation let a counter reach zero
                outcomes.append("absent")
        assert outcomes[0] == outcomes[1]
        assert _state(direct) == _state(batch)
    assert [direct.contains(key) for key in inserts] == (
        batch.contains_many(inserts)
    )


@given(
    inserts=st.lists(keys, max_size=30),
    removes_count=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_counting_wide_counters_fallback(inserts, removes_count):
    # b > 8 uses python-int storage; batch ops must still match scalars.
    scalar = CountingBloomFilter(16, 12, 4)
    batch = CountingBloomFilter(16, 12, 4)
    for key in inserts:
        scalar.add(key)
    batch.add_many(inserts)
    assert list(scalar._counters) == list(batch._counters)
    removes = inserts[:removes_count]
    for key in removes:
        scalar.remove(key)
        batch.remove(key)
    assert list(scalar._counters) == list(batch._counters)
    assert batch.contains_many(inserts) == [key in scalar for key in inserts]
