"""Tests for the generic consistent-hashing ring."""

import pytest

from repro.core.ring import HashRing, VirtualNode, prefix_active
from repro.errors import ConfigurationError, RoutingError


class TestConstruction:
    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            HashRing(0)

    def test_add_and_len(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        ring.add(50, server=1)
        assert len(ring) == 2

    def test_positions_wrap_mod_size(self):
        ring = HashRing(100)
        ring.add(150, server=0)  # stored as 50
        assert ring._nodes[0].position == 50

    def test_duplicate_position_rejected(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        with pytest.raises(ConfigurationError):
            ring.add(10, server=1)

    def test_add_many(self):
        ring = HashRing(100)
        ring.add_many([VirtualNode(10, 0), VirtualNode(20, 1)])
        assert ring.servers() == [0, 1]

    def test_nodes_sorted_by_position(self):
        ring = HashRing(100)
        for pos in (70, 10, 40):
            ring.add(pos, server=0)
        assert [n.position for n in ring._nodes] == [10, 40, 70]


class TestLookup:
    def test_empty_ring_raises(self):
        with pytest.raises(RoutingError):
            HashRing(100).lookup(5)

    def test_owner_is_next_position_clockwise(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        ring.add(50, server=1)
        # vnode at p owns [pred, p): keys 10..49 -> 50 (server 1)
        assert ring.lookup(10) == 1
        assert ring.lookup(49) == 1
        # keys 50..99 and 0..9 wrap to position 10 (server 0)
        assert ring.lookup(50) == 0
        assert ring.lookup(99) == 0
        assert ring.lookup(0) == 0
        assert ring.lookup(9) == 0

    def test_position_exactly_at_vnode_goes_clockwise(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        ring.add(50, server=1)
        # key 50 is NOT owned by the vnode at 50 ([pred, p) is half-open)
        assert ring.lookup(50) == 0

    def test_inactive_servers_are_skipped(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        ring.add(50, server=1)
        ring.add(90, server=2)
        assert ring.lookup(20, is_active=lambda s: s != 1) == 2

    def test_skip_wraps_around(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        ring.add(90, server=2)
        # key 95 -> first position > 95 wraps to 10
        assert ring.lookup(95, is_active=lambda s: s == 2) == 2
        assert ring.lookup(95) == 0

    def test_no_active_server_raises(self):
        ring = HashRing(100)
        ring.add(10, server=0)
        with pytest.raises(RoutingError):
            ring.lookup(5, is_active=lambda s: False)


class TestOwnedLengths:
    def test_full_ring_partition(self):
        ring = HashRing(100)
        ring.add(25, server=0)
        ring.add(75, server=1)
        owned = ring.owned_lengths()
        assert owned == {0: 50, 1: 50}

    def test_lengths_sum_to_ring_size(self):
        ring = HashRing(1000)
        for pos, server in ((100, 0), (350, 1), (600, 2), (980, 0)):
            ring.add(pos, server)
        assert sum(ring.owned_lengths().values()) == 1000

    def test_inactive_ranges_drain_to_successor(self):
        ring = HashRing(100)
        ring.add(25, server=0)
        ring.add(75, server=1)
        owned = ring.owned_lengths(is_active=lambda s: s == 0)
        assert owned == {0: 100}

    def test_empty_ring_owned_lengths(self):
        assert HashRing(100).owned_lengths() == {}


class TestPrefixActive:
    def test_prefix_semantics(self):
        active = prefix_active(3)
        assert active(0) and active(2)
        assert not active(3)

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            prefix_active(0)


class TestCompiledCache:
    def test_a_table_in_use_survives_compiling_eight_other_sizes(self):
        # The cache is an LRU: the epoch in force is touched on every
        # route, so compiling other sizes must evict those, never it.
        ring = HashRing(1000)
        ring.add_many([VirtualNode(10 * i + 5, i) for i in range(10)])
        in_force = ring.compiled_for(10)
        for other in range(1, 9):
            ring.compiled_for(other)
            assert ring.compiled_for(10) is in_force
        assert ring.compiled_for(9) is not in_force
        assert ring.compiled_for(10) is in_force

    def test_mutation_drops_every_table(self):
        ring = HashRing(1000)
        ring.add(5, server=0)
        table = ring.compiled_for(1)
        ring.add(500, server=1)
        assert ring.compiled_for(1) is not table
