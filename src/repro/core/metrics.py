"""Shared routing-quality metrics.

Small, dependency-light helpers used by :mod:`repro.core.migration`, the
hot-key storm benchmark and the router property tests — one definition of
"remap fraction" and "peak-to-average load" instead of ad-hoc counting at
every call site.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError

OwnerMap = Union[Sequence[int], Callable[[object], int]]


def remap_fraction(
    old: OwnerMap,
    new: OwnerMap,
    keys: Optional[Sequence] = None,
) -> float:
    """Fraction of keys whose owner differs between two routing epochs.

    ``old`` and ``new`` are either aligned owner sequences (element ``i``
    is the owner of key ``i`` under that epoch) or callables mapping a key
    to its owner, in which case ``keys`` must be given and both callables
    are applied to every key.  The paper's Section II lower bound for a
    balanced scheme on ``n -> n'`` is ``|n - n'| / max(n, n')``; Algorithm
    1 meets it exactly, random virtual nodes approach it.

    Returns the fraction in ``[0, 1]``.
    """
    if callable(old) or callable(new):
        if not (callable(old) and callable(new)):
            raise ConfigurationError(
                "old and new must both be sequences or both be callables"
            )
        if keys is None:
            raise ConfigurationError("keys is required when old/new are callables")
        old = [old(key) for key in keys]
        new = [new(key) for key in keys]
    else:
        if keys is not None and len(keys) != len(old):
            raise ConfigurationError(
                f"keys length {len(keys)} != owner sequence length {len(old)}"
            )
    if len(old) != len(new):
        raise ConfigurationError(
            f"owner sequences differ in length: {len(old)} != {len(new)}"
        )
    if len(old) == 0:
        raise ConfigurationError("cannot compute remap fraction of zero keys")
    try:  # vectorized when both sides are numpy-coercible integer arrays
        import numpy as np

        old_arr = np.asarray(old)
        new_arr = np.asarray(new)
        if old_arr.dtype.kind in "iu" and new_arr.dtype.kind in "iu":
            return float(np.mean(old_arr != new_arr))
    except Exception:  # pragma: no cover - fall back to the pure-python loop
        pass
    moved = sum(1 for before, after in zip(old, new) if before != after)
    return moved / len(old)


def peak_to_average(counts: Sequence[int]) -> float:
    """Peak-to-average load ratio over per-server request counts.

    ``1.0`` is perfect balance; the paper's Fig. 5 plots this ratio for
    Proteus versus random-vnode consistent hashing.  Servers with zero
    load still count toward the average (an idle server *is* imbalance).
    """
    if len(counts) == 0:
        raise ConfigurationError("cannot compute peak-to-average of zero servers")
    total = float(sum(counts))
    if total <= 0:
        raise ConfigurationError("total load must be positive")
    average = total / len(counts)
    return float(max(counts)) / average
