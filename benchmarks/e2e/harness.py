"""Socket-free pieces of the end-to-end benchmark.

Everything a wrong number could hide in lives here, away from sockets and
subprocesses, so ``test_harness.py`` can pin it down: the seeded key
streams, the value codec, the work unit every time is divided by,
percentile/median arithmetic, the noise guard that decides which slices
count, and the fold from raw slices to the named end-to-end metrics.
"""

from __future__ import annotations

import math
import statistics
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: a slice whose two bracketing unit measurements differ by more than this
#: share of the smaller one was measured while the machine changed speed
GUARD_BRACKET = 0.25
#: ... and one whose unit exceeds this multiple of the run's lower-quartile
#: unit was measured while the machine was slow throughout
GUARD_LEVEL = 1.5
#: the work unit of the machine ``setup_s`` is quoted for, in seconds: a
#: set-up's wall time is scaled by this over the unit measured right after
#: it, so a slow minute does not read as a slow set-up
NOMINAL_UNIT = 100e-6


# --------------------------------------------------------------- key streams


def stream_rng(seed: int, workload: int, fetcher: int) -> np.random.Generator:
    """The generator behind one fetcher's key stream.

    Seeded from plain integers only (never ``hash()``), so the same
    ``(seed, workload, fetcher)`` yields the same stream in every process.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, workload, fetcher]))


def uniform_pages(
    rng: np.random.Generator, universe: int, page_size: int, pages: int
) -> List[List[int]]:
    """*pages* pages of *page_size* distinct key indexes, uniform over
    ``range(universe)``."""
    if page_size == 1:
        return [[int(i)] for i in rng.integers(0, universe, size=pages)]
    return [
        rng.choice(universe, size=page_size, replace=False).tolist()
        for _ in range(pages)
    ]


def zipf_cdf(universe: int, exponent: float) -> np.ndarray:
    """Cumulative Zipf(*exponent*) weights over ranks ``1..universe``."""
    weights = 1.0 / np.arange(1, universe + 1, dtype=np.float64) ** exponent
    return np.cumsum(weights / weights.sum())


def zipf_pages(
    rng: np.random.Generator, cdf: np.ndarray, page_size: int, pages: int
) -> List[List[int]]:
    """*pages* pages of *page_size* distinct key indexes drawn by inverse
    CDF (index 0 is the most popular key); a page keeps the first
    *page_size* distinct draws, in draw order."""
    last = len(cdf) - 1
    out = []
    for _ in range(pages):
        page: Dict[int, None] = {}
        while len(page) < page_size:
            draws = np.searchsorted(cdf, rng.random(2 * page_size))
            for index in np.minimum(draws, last).tolist():
                page.setdefault(index)
                if len(page) == page_size:
                    break
        out.append(list(page))
    return out


def lru_contents(
    accesses: Iterable[int], owner_of: Sequence[int], servers: int,
    capacity: int,
) -> List[List[int]]:
    """What *servers* LRU caches of *capacity* items each hold after
    *accesses* (a miss inserts), every cache in eviction order — next
    victim first.  Storing exactly this, in this order, starts a cluster
    at the steady state of the stream instead of drifting towards it."""
    caches: List[OrderedDict] = [OrderedDict() for _ in range(servers)]
    for index in accesses:
        cache = caches[owner_of[index]]
        if index in cache:
            cache.move_to_end(index)
        else:
            cache[index] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return [list(cache) for cache in caches]


def make_value(key: str, size: int) -> bytes:
    """The one value a key may ever have: ``"<key>:"`` padded to *size*, so
    every returned value can be checked against its own key."""
    return (key + ":").encode("ascii").ljust(size, b".")


# ------------------------------------------------------------------ work unit

_UNIT_KEYS = [f"page:{i}" for i in range(64)]
_UNIT_REPLY = b"".join(
    b"VALUE page:%d 0 8\r\n12345678\r\n" % i for i in range(64)
) + b"END\r\n"


def work_unit() -> int:
    """The Python half of one calibration exchange (``cluster.UnitProbe``
    times it after a round trip to the echo child): encode a 64-key
    multiget and decode its 64-value reply — the string, bytes and dict
    work any memcached client does, owned by the benchmark so it never
    changes."""
    request = ("get " + " ".join(_UNIT_KEYS) + "\r\n").encode("ascii")
    lines = _UNIT_REPLY.split(b"\r\n")
    values = {lines[i].split()[1]: lines[i + 1] for i in range(0, 128, 2)}
    return len(request) + len(values)


# ----------------------------------------------------------------- arithmetic


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``0 < q <= 1``)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------- noise guard


def noisy_slices(
    before: Sequence[float], after: Sequence[float]
) -> List[bool]:
    """Which slices the calibration says were measured on a disturbed
    machine.  Looks only at the unit measurements bracketing each slice —
    never at the code under test."""
    units = [(a + b) / 2 for a, b in zip(before, after)]
    if len(units) >= 4:
        level = GUARD_LEVEL * statistics.quantiles(units, n=4)[0]
    else:
        level = math.inf
    return [
        abs(a - b) > GUARD_BRACKET * min(a, b) or unit > level
        for a, b, unit in zip(before, after, units)
    ]


def usable_slices(flags: Sequence[bool]) -> Optional[List[int]]:
    """Indexes of the slices to keep, or ``None`` when more than half were
    flagged: then the calibration cannot tell signal from noise and the
    workload is reported unresolved (all slices are used)."""
    keep = [index for index, noisy in enumerate(flags) if not noisy]
    if len(keep) * 2 < len(flags):
        return None
    return keep


# -------------------------------------------------------------------- slices


@dataclass
class Slice:
    """One closed-loop burst of pages between two unit measurements."""

    latencies: List[float]      #: seconds per ``fetch_many``, every fetcher
    wall: float                 #: seconds from first send to last reply
    cpu: float                  #: client + server CPU seconds in the burst
    unit_before: float          #: seconds per work unit just before
    unit_after: float           #: ... and just after
    keys: int = 0               #: keys attempted
    failed: int = 0             #: keys that came back wrong, late or degraded
    db_reads: int = 0           #: calls to the database callable

    @property
    def pages(self) -> int:
        return len(self.latencies)

    @property
    def unit(self) -> float:
        return (self.unit_before + self.unit_after) / 2


@dataclass
class Folded:
    """The named end-to-end metrics of one workload run, plus the raw
    figures printed beside them for humans."""

    metrics: Dict[str, float]
    raw: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    unresolved: bool = False


@dataclass
class SetUp:
    """One timed set-up: its wall seconds and the work unit right after."""

    wall: float
    unit: float

    @property
    def nominal_seconds(self) -> float:
        return self.wall * NOMINAL_UNIT / self.unit


def fold(slices: Sequence[Slice], setups: Sequence[SetUp]) -> Folded:
    """Fold raw slices into the end-to-end metrics.

    Timed figures are divided by the work unit of their own slice before
    anything is pooled, so a machine that slows down mid-run slows numerator
    and denominator together.  Counts use every slice — noise cannot change
    a count — while timed figures use only the slices the guard kept.
    """
    if not slices:
        raise ValueError("no slices measured")
    flags = noisy_slices(
        [s.unit_before for s in slices], [s.unit_after for s in slices]
    )
    keep = usable_slices(flags)
    timed = list(slices) if keep is None else [slices[i] for i in keep]
    normalised = sorted(
        latency / s.unit for s in timed for latency in s.latencies
    )
    page_units = sum(s.pages * s.unit for s in timed)
    keys = sum(s.keys for s in slices)
    db_reads = sum(s.db_reads for s in slices)
    pages = sum(s.pages for s in timed)
    wall = sum(s.wall for s in timed)
    latencies = sorted(l for s in timed for l in s.latencies)
    return Folded(
        metrics={
            "setup_s": statistics.median(s.nominal_seconds for s in setups),
            "page_p50_wu": percentile(normalised, 0.50),
            "page_p90_wu": percentile(normalised, 0.90),
            "page_cost_wu": statistics.median(
                s.wall / s.pages / s.unit for s in timed
            ),
            "cache_served_per_kkey": 1000.0 * (keys - db_reads) / keys,
            "cluster_cpu_wu": sum(s.cpu for s in timed) / page_units,
        },
        raw={
            "setup_wall_s": statistics.median(s.wall for s in setups),
            "pages": float(pages),
            "slices": float(len(slices)),
            "noisy_slices": float(sum(flags)),
            "pages_per_s": pages / wall,
            "page_p50_us": 1e6 * percentile(latencies, 0.50),
            "page_p99_us": 1e6 * percentile(latencies, 0.99),
            "page_p95_wu": percentile(normalised, 0.95),
            "page_p99_wu": percentile(normalised, 0.99),
            "work_unit_us": 1e6 * statistics.median(s.unit for s in timed),
            "db_reads_per_kkey": 1000.0 * db_reads / keys,
            "samples_beyond_p90": float(
                len(normalised) - math.ceil(0.90 * len(normalised))
            ),
        },
        attempted=keys,
        failed=sum(s.failed for s in slices),
        unresolved=keep is None,
    )
