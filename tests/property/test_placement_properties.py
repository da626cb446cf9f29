"""Property-based tests for Algorithm 1 (the paper's formal guarantees)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import place_virtual_nodes, theoretical_min_vnodes
from repro.core.ring import prefix_active

servers = st.integers(min_value=1, max_value=14)
ring_sizes = st.integers(min_value=100, max_value=2 ** 40)


@given(num_servers=servers, ring_size=ring_sizes)
@settings(max_examples=40, deadline=None)
def test_vnode_count_is_exactly_the_theorem1_bound(num_servers, ring_size):
    placement = place_virtual_nodes(num_servers, ring_size)
    assert placement.num_vnodes == theoretical_min_vnodes(num_servers)


@given(num_servers=servers, ring_size=ring_sizes)
@settings(max_examples=25, deadline=None)
def test_balance_condition_holds_for_every_prefix(num_servers, ring_size):
    # The executable form of the Section III-D induction proof, on arbitrary
    # ring sizes (exact rational arithmetic, no tolerance).
    place_virtual_nodes(num_servers, ring_size).verify_balance()


@given(num_servers=servers, ring_size=ring_sizes)
@settings(max_examples=25, deadline=None)
def test_ranges_tile_the_key_space(num_servers, ring_size):
    placement = place_virtual_nodes(num_servers, ring_size)
    ranges = sorted(placement.ranges, key=lambda r: r.start)
    assert ranges[0].start == 0
    for prev, cur in zip(ranges, ranges[1:]):
        assert prev.end == cur.start
        assert prev.length > 0
    assert ranges[-1].end == ring_size


@given(
    num_servers=st.integers(min_value=2, max_value=10),
    ring_size=st.integers(min_value=1000, max_value=2 ** 32),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_scale_down_only_moves_the_drained_servers_keys(
    num_servers, ring_size, data
):
    # Minimal-migration property: under n -> n-1, a key changes owner only
    # if its owner was the drained server.
    placement = place_virtual_nodes(num_servers, ring_size)
    ring = placement.build_ring()
    n = data.draw(st.integers(min_value=2, max_value=num_servers), label="n")
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=ring_size - 1),
            min_size=1, max_size=50,
        ),
        label="positions",
    )
    for position in positions:
        before = ring.lookup(position, prefix_active(n))
        after = ring.lookup(position, prefix_active(n - 1))
        if before != after:
            assert before == n - 1  # only the powered-off server loses keys


@given(num_servers=servers)
@settings(max_examples=20, deadline=None)
def test_owned_fraction_is_exact_rational(num_servers):
    placement = place_virtual_nodes(num_servers, 2 ** 16)
    ring = placement.build_ring()
    for n in range(1, num_servers + 1):
        owned = ring.owned_lengths(prefix_active(n))
        total = sum(
            (Fraction(owned.get(s, 0), 2 ** 16) for s in range(n)),
            start=Fraction(0),
        )
        assert total == 1
