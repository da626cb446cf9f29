"""Zipf-distributed key popularity.

Wikipedia page popularity is famously Zipf-like (Urdaneta et al., the
paper's trace source, measure an exponent near 1).  The sampler precomputes
the normalized CDF once with numpy and answers samples by binary search, so
drawing millions of keys stays cheap; ranks are shuffled into key ids by a
seeded permutation so that "popular" keys are spread across the hash space
(otherwise every scenario would hammer one ring segment by construction).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class ZipfSampler:
    """Draws item indexes ``0..num_items-1`` with Zipf(alpha) popularity.

    Args:
        num_items: catalogue size (distinct pages).
        alpha: Zipf exponent; 0 degenerates to uniform.
        seed: RNG seed (numpy ``default_rng``).

    Ranks are permuted into item ids, so popularity is not correlated with
    item id order.
    """

    def __init__(
        self,
        num_items: int,
        alpha: float = 0.9,
        seed: int = 0,
    ) -> None:
        if num_items < 1:
            raise ConfigurationError(f"num_items must be >= 1, got {num_items}")
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self._rng = np.random.default_rng(seed)
        weights = np.arange(1, num_items + 1, dtype=np.float64) ** -alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._perm = self._rng.permutation(num_items)

    def sample(self) -> int:
        """Draw one item index."""
        return int(self._perm[np.searchsorted(self._cdf, self._rng.random())])

    def sample_many(self, count: int) -> np.ndarray:
        """Draw *count* item indexes (vectorized)."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        ranks = np.searchsorted(self._cdf, self._rng.random(count))
        return self._perm[ranks]
