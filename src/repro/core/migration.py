"""Migration analysis — how many keys a provisioning transition remaps.

The Section II objective: when the active count changes ``n -> n'``, at most
``|n - n'| / max(n, n')`` of the in-cache data should be remapped.  Proteus
meets this bound with equality (it is also the information-theoretic minimum:
the servers being powered on/off own exactly that fraction).  The Naive
modulo scheme remaps ``1 - 1/max(n, n')``-ish fractions — the Reddit incident.

This module computes remap fractions both analytically (for Proteus) and
empirically (for any :class:`~repro.core.router.Router`, by sampling keys).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.metrics import remap_fraction
from repro.core.router import Router
from repro.errors import ConfigurationError


def migration_lower_bound(n_old: int, n_new: int) -> Fraction:
    """Section II: the minimum remappable fraction, ``|Δn| / max(n, n')``."""
    if n_old < 1 or n_new < 1:
        raise ConfigurationError("active counts must be >= 1")
    return Fraction(abs(n_new - n_old), max(n_old, n_new))


def naive_remap_fraction(n_old: int, n_new: int) -> Fraction:
    """Expected remap fraction of ``hash mod n``: ``1 - gcd-preserved overlap``.

    A key keeps its server iff ``hash mod n_old == hash mod n_new``.  For a
    uniform 64-bit hash this happens for exactly one residue pair per
    ``lcm(n_old, n_new)`` values, giving survival probability
    ``min(n_old, n_new) * gcd / (n_old * n_new)`` — e.g. ``n -> n+1`` keeps
    only ``~1/(n+1)`` of keys (the paper's ``n/(n+1)`` remap claim).
    """
    import math

    if n_old < 1 or n_new < 1:
        raise ConfigurationError("active counts must be >= 1")
    if n_old == n_new:
        return Fraction(0)
    gcd = math.gcd(n_old, n_new)
    lcm = n_old * n_new // gcd
    # Within one lcm-length block of hash values, a value survives iff its
    # residue r (< lcm) satisfies r mod n_old == r mod n_new, i.e. both
    # residues equal r mod gcd... counting: survivors are r < min(n_old,n_new)
    # stepping by lcm? Exact count: r mod n_old == r mod n_new  <=>
    # (n_old - n_new) | contribution — survivors are r in [0, lcm) with
    # r mod n_old == r mod n_new; these are exactly r in [0, min(n_old, n_new))
    # repeated every lcm when gcd == min? For the general case we count
    # directly (lcm is small for realistic n).
    survivors = sum(1 for r in range(lcm) if r % n_old == r % n_new)
    return Fraction(lcm - survivors, lcm)


def empirical_remap_fraction(
    router: Router, n_old: int, n_new: int, num_samples: int = 20000, seed: int = 7
) -> float:
    """Measure the remap fraction of *router* over random sampled keys.

    A thin wrapper over the shared :func:`repro.core.metrics.remap_fraction`
    using the router's vectorized batch path; the sampled key stream is
    seed-stable across releases.
    """
    import random

    rng = random.Random(seed)
    keys = [f"sample:{rng.getrandbits(64):016x}" for _ in range(num_samples)]
    return remap_fraction(
        router.route_many(keys, n_old), router.route_many(keys, n_new)
    )
