"""Algorithm 1 — deterministic virtual-node placement (paper Section III).

Given a fixed provisioning order ``s_1 .. s_N`` over a key space of size
``K``, the algorithm assigns host ranges so that:

* exactly ``N(N-1)/2 + 1`` virtual nodes exist — the Theorem 1 lower bound;
* for **every** active prefix ``{s_1..s_n}``, each active server owns exactly
  ``K/n`` of the key space (the Balance Condition);
* a transition ``n -> n'`` remaps exactly ``|n - n'| / max(n, n')`` of the
  key space — the Section II lower bound.

Construction (paper Algorithm 1): ``s_1`` starts with one virtual node
covering the whole ring.  Each subsequent ``s_i`` places ``i-1`` virtual
nodes, the ``j``-th of which *borrows* a host range of length ``K/(i(i-1))``
from the front of some feasible range of ``s_j`` (feasible = strictly longer
than the amount borrowed).  Ranges are exact :class:`fractions.Fraction`
values, so the balance property holds *exactly*, not just within float error.

Server ids here are 0-based (``0..N-1``); the paper's ``s_i`` is server
``i-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List

from repro.core.ring import HashRing, prefix_active
from repro.errors import ConfigurationError, PlacementError


def theoretical_min_vnodes(num_servers: int) -> int:
    """Theorem 1: at least ``N(N-1)/2 + 1`` virtual nodes satisfy BC."""
    if num_servers < 1:
        raise ConfigurationError(f"num_servers must be >= 1, got {num_servers}")
    return num_servers * (num_servers - 1) // 2 + 1


@dataclass
class HostRange:
    """A contiguous host range ``[start, start+length)`` owned by *server*.

    The owning virtual node sits at ring position ``start + length``: its
    host range is everything between it and its direct predecessor.
    """

    start: Fraction
    length: Fraction
    server: int

    @property
    def end(self) -> Fraction:
        """One past the last position of the range (== the vnode position)."""
        return self.start + self.length


@dataclass
class Placement:
    """The output of Algorithm 1 for ``num_servers`` over key space ``ring_size``."""

    num_servers: int
    ring_size: int
    ranges: List[HostRange] = field(default_factory=list)

    @property
    def num_vnodes(self) -> int:
        """Total virtual nodes placed (== Theorem 1 bound for Algorithm 1)."""
        return len(self.ranges)

    def build_ring(self) -> HashRing:
        """Materialize the placement as a :class:`HashRing`.

        Virtual-node positions are the range *ends*; the lookup convention of
        :class:`HashRing` (owner of ``[pred, p)`` is the vnode at ``p``) then
        reproduces the host ranges exactly, and powering servers off in
        reverse provisioning order drains each borrowed range back to its
        lender — the "final successor" relation of Section III-B.
        """
        ring = HashRing(self.ring_size)
        for rng in self.ranges:
            ring.add(rng.end % self.ring_size, rng.server)
        return ring

    def verify_balance(self) -> None:
        """Check BC exactly for every active prefix; raise on violation.

        For each ``n`` in ``1..N`` every active server must own exactly
        ``K/n``.  This is the executable statement of the paper's induction
        proof (Section III-D).
        """
        ring = self.build_ring()
        target_total = Fraction(self.ring_size)
        for num_active in range(1, self.num_servers + 1):
            owned = ring.owned_lengths(prefix_active(num_active))
            expected = target_total / num_active
            for server in range(num_active):
                got = Fraction(owned.get(server, 0))
                if got != expected:
                    raise PlacementError(
                        f"balance violated at n={num_active}: server {server} "
                        f"owns {got}, expected {expected}"
                    )


def place_virtual_nodes(num_servers: int, ring_size: int) -> Placement:
    """Run Algorithm 1 and return the resulting placement.

    Args:
        num_servers: ``N``, the total number of physical cache servers.
        ring_size: ``K``, the key-space (ring) size; any positive integer —
            arithmetic is exact rationals so divisibility is not required.

    Raises:
        PlacementError: if no feasible lender range exists (cannot happen for
            valid inputs, per the paper's proof — treated as an internal
            invariant violation).
    """
    if num_servers < 1:
        raise ConfigurationError(f"num_servers must be >= 1, got {num_servers}")
    if ring_size < 1:
        raise ConfigurationError(f"ring_size must be >= 1, got {ring_size}")

    key_space = Fraction(ring_size)
    # R[j] = host ranges currently owned by server j; mutated as later
    # servers borrow from their fronts.
    owned: List[List[HostRange]] = [[] for _ in range(num_servers)]
    owned[0].append(HostRange(Fraction(0), key_space, 0))

    for i in range(2, num_servers + 1):  # paper's s_i, i.e. server i-1
        borrower = i - 1
        slice_len = key_space / (i * (i - 1))
        for j in range(1, i):  # borrow once from each s_j, j < i
            lender = j - 1
            lender_ranges = owned[lender]
            for rng in lender_ranges:
                if rng.length > slice_len:
                    borrowed = HostRange(rng.start, slice_len, borrower)
                    rng.start += slice_len
                    rng.length -= slice_len
                    owned[borrower].append(borrowed)
                    break
            else:
                raise PlacementError(
                    f"no feasible range of server {lender} to lend "
                    f"{slice_len} to server {borrower}"
                )

    ranges = [rng for server_ranges in owned for rng in server_ranges]
    ranges.sort(key=lambda r: r.start)
    return Placement(num_servers=num_servers, ring_size=ring_size, ranges=ranges)

