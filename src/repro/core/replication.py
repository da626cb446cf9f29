"""Fault tolerance via replicated hash rings (paper Section III-E), Eq. 3.

Proteus keeps ``r`` replicas of every ``(key, data)`` pair by constructing
``r`` consistent-hashing rings with ``r`` different hash functions, all
sharing the *same* virtual-node placement.  A key is stored on server ``s_i``
if it falls into any of ``s_i``'s host ranges on any ring.  The rings
themselves are :class:`~repro.core.router.RingRouter`'s ``replicas``; this
module holds the analysis.  Replicas may collide on one server; the
probability that all ``r`` replicas land on distinct servers (Eq. 3) is::

    P_nc = prod_{i=0}^{r-1} (n(t) - i) / n(t)

which approaches 1 for small ``r`` and large ``n``.
"""

from __future__ import annotations

import random

from repro.core.router import RingRouter
from repro.errors import ConfigurationError


def no_conflict_probability(replicas: int, num_active: int) -> float:
    """Eq. 3: probability that *replicas* independent placements are distinct."""
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    if num_active < 1:
        raise ConfigurationError(f"num_active must be >= 1, got {num_active}")
    probability = 1.0
    for i in range(replicas):
        probability *= max(0, num_active - i) / num_active
    return probability


def empirical_conflict_rate(
    router: RingRouter, num_active: int, num_samples: int = 5000, seed: int = 11
) -> float:
    """Measured fraction of keys whose replicas collide (validates Eq. 3)."""
    rng = random.Random(seed)
    conflicts = 0
    for _ in range(num_samples):
        key = f"replica-sample:{rng.getrandbits(64):016x}"
        owners = router.replica_servers(key, num_active)
        if len(set(owners)) < len(owners):
            conflicts += 1
    return conflicts / num_samples
