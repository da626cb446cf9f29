"""Counting-Bloom-filter sizing (paper Section IV-B).

Given the expected number of in-cache keys ``kappa``, the number of hash
functions ``h``, and bounds on the false-positive and false-negative rates
``(pp, pn)``, compute the memory-minimal configuration ``(l, b)``:

* false positive rate  ``Gp(l)   = (1 - e^(-kappa*h/l))^h``          (Eq. 4)
* false negative bound ``Gn(l,b) = l * (e*kappa*h / (2^b * l))^(2^b)`` (Eq. 5)
* objective: minimize ``l*b``  s.t.  ``Gp(l) <= pp`` and ``Gn(l,b) <= pn``
  (Eq. 6)

The paper shows (Eqs. 7-9) that at fixed ``l*b`` the false-negative bound
improves faster by shrinking ``l`` than by shrinking ``b``, so the optimum
sits at the *smallest feasible* ``l`` (from the false-positive constraint)
with the smallest integer ``b`` that then satisfies the false-negative
constraint.  Eq. 10 gives the closed form via the Lambert W function:

    l = -kappa*h / ln(1 - pp^(1/h))
    b = log2( beta * e^{ W(-ln(gamma) / beta) } ),   beta = e*kappa*h/l,
                                                     gamma = pn/l

(The paper prints ``b = ln(...)``; dimensional analysis of Eq. 5 — solve
``x*ln(beta/x) = ln(gamma)`` for ``x = 2^b`` — shows the logarithm must be
base 2.  We implement the corrected form and cross-check it against integer
enumeration, which the paper itself recommends "in practice".)

The worked example of Section IV-B — ``kappa=1e4, h=4, pp=pn=1e-4`` yielding
``l = 4e5, b = 3`` and about 150 KB per digest — is verified in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.bloom.counting import CountingBloomFilter

#: Widest counter we will ever consider; real deployments use b <= 8.
MAX_COUNTER_BITS = 16


def false_positive_rate(num_counters: int, kappa: int, num_hashes: int) -> float:
    """Eq. 4: ``Gp(l) = (1 - e^(-kappa*h/l))^h``."""
    if num_counters < 1:
        raise ConfigurationError(f"num_counters must be >= 1, got {num_counters}")
    if kappa < 0:
        raise ConfigurationError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0:
        return 0.0
    # -expm1(-x) instead of 1-exp(-x): avoids cancellation for tiny x.
    return (-math.expm1(-kappa * num_hashes / num_counters)) ** num_hashes


def false_negative_bound(
    num_counters: int, counter_bits: int, kappa: int, num_hashes: int
) -> float:
    """Eq. 5: ``Gn(l, b) = l * (e*kappa*h / (2^b * l))^(2^b)``.

    This is the union bound on the probability that *any* counter overflows a
    ``b``-bit width after ``kappa`` insertions; overflow (then underflow) is
    the only source of false negatives in Proteus.
    """
    if num_counters < 1:
        raise ConfigurationError(f"num_counters must be >= 1, got {num_counters}")
    if counter_bits < 1:
        raise ConfigurationError(f"counter_bits must be >= 1, got {counter_bits}")
    if kappa == 0:
        return 0.0
    width = 2 ** counter_bits
    base = math.e * kappa * num_hashes / (width * num_counters)
    try:
        return num_counters * base ** width
    except OverflowError:
        return math.inf


def minimal_counters(kappa: int, num_hashes: int, pp: float) -> int:
    """Smallest ``l`` with ``Gp(l) <= pp``: ``l = ceil(-kappa*h / ln(1 - pp^(1/h)))``."""
    if not 0.0 < pp < 1.0:
        raise ConfigurationError(f"pp must be in (0, 1), got {pp}")
    if kappa < 1:
        raise ConfigurationError(f"kappa must be >= 1, got {kappa}")
    if num_hashes < 1:
        raise ConfigurationError(f"num_hashes must be >= 1, got {num_hashes}")
    root = pp ** (1.0 / num_hashes)
    # log1p keeps precision when root is tiny (very strict pp bounds).
    return math.ceil(-kappa * num_hashes / math.log1p(-root))


def counter_bits_closed_form(
    num_counters: int, kappa: int, num_hashes: int, pn: float
) -> float:
    """Real-valued ``b`` from the (corrected) Eq. 10 Lambert-W closed form.

    Returns the continuous solution of ``Gn(l, b) = pn``; callers round up to
    the next integer.  Requires scipy for the Lambert W function.
    """
    from scipy.special import lambertw

    if not 0.0 < pn < 1.0:
        raise ConfigurationError(f"pn must be in (0, 1), got {pn}")
    beta = math.e * kappa * num_hashes / num_counters
    gamma = pn / num_counters
    arg = -math.log(gamma) / beta
    w = float(lambertw(arg).real)
    x = beta * math.exp(w)  # x = 2^b
    return math.log2(x)


def counter_bits_enumerated(
    num_counters: int, kappa: int, num_hashes: int, pn: float
) -> int:
    """Smallest integer ``b`` with ``Gn(l, b) <= pn`` (the paper's practical route)."""
    if not 0.0 < pn < 1.0:
        raise ConfigurationError(f"pn must be in (0, 1), got {pn}")
    for bits in range(1, MAX_COUNTER_BITS + 1):
        if false_negative_bound(num_counters, bits, kappa, num_hashes) <= pn:
            return bits
    raise ConfigurationError(
        f"no counter width <= {MAX_COUNTER_BITS} bits meets pn={pn} "
        f"with l={num_counters}, kappa={kappa}, h={num_hashes}"
    )


@dataclass(frozen=True)
class BloomConfig:
    """A sized counting-Bloom-filter configuration.

    Attributes:
        num_counters: ``l`` — number of counters.
        counter_bits: ``b`` — bits per counter.
        num_hashes: ``h`` — probe functions.
        kappa: design insertion count the bounds were computed for.
        fp_bound: achieved false-positive bound ``Gp(l)``.
        fn_bound: achieved false-negative bound ``Gn(l, b)``.
    """

    num_counters: int
    counter_bits: int
    num_hashes: int
    kappa: int
    fp_bound: float
    fn_bound: float

    @property
    def memory_bits(self) -> int:
        """Objective value ``l*b``."""
        return self.num_counters * self.counter_bits

    @property
    def memory_bytes(self) -> int:
        """Digest memory in bytes (the paper quotes ~150 KB for the example)."""
        return (self.memory_bits + 7) // 8

    def build(self, strict: bool = True) -> CountingBloomFilter:
        """Instantiate a :class:`~repro.bloom.counting.CountingBloomFilter`."""
        from repro.bloom.counting import CountingBloomFilter

        return CountingBloomFilter(
            self.num_counters, self.counter_bits, self.num_hashes, strict=strict
        )


def optimal_config(
    kappa: int, num_hashes: int = 4, pp: float = 1e-4, pn: float = 1e-4
) -> BloomConfig:
    """Solve Eq. 6: the memory-minimal ``(l, b)`` for the given bounds.

    Per the paper's argument (Eqs. 7-9), pick the smallest ``l`` satisfying
    the false-positive bound, then the smallest integer ``b`` satisfying the
    false-negative bound at that ``l``.
    """
    num_counters = minimal_counters(kappa, num_hashes, pp)
    counter_bits = counter_bits_enumerated(num_counters, kappa, num_hashes, pn)
    return BloomConfig(
        num_counters=num_counters,
        counter_bits=counter_bits,
        num_hashes=num_hashes,
        kappa=kappa,
        fp_bound=false_positive_rate(num_counters, kappa, num_hashes),
        fn_bound=false_negative_bound(num_counters, counter_bits, kappa, num_hashes),
    )
