"""Cache-size vs hit-ratio simulation (paper Fig. 6).

The paper replays the Wikipedia trace against memcached instances of
different memory sizes and reports the hit ratio: "when each Memcached
server uses 1GB memory (with 4KB data per page), the hit ratio reaches
above 80%".  We replay a trace through a single LRU-bounded
:class:`~repro.cache.store.KeyValueStore` per cache size — the per-server
view is equivalent because routing partitions keys, and hit ratio composes
over partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cache.store import KeyValueStore
from repro.errors import ConfigurationError
from repro.workload.trace import TraceRecord


@dataclass(frozen=True)
class HitRatioPoint:
    """One Fig. 6 sample: the measured hit ratio."""

    hit_ratio: float
    distinct_keys: int


def simulate_hit_ratio(
    trace: Sequence[TraceRecord],
    capacity_bytes: int,
    item_size: int = 4096,
    warmup_fraction: float = 0.1,
) -> HitRatioPoint:
    """Replay *trace* through one bounded cache; count hits after warm-up.

    Args:
        trace: time-sorted requests.
        capacity_bytes: cache memory (Fig. 6 sweeps this).
        item_size: bytes per cached object (paper: 4 KB pages).
        warmup_fraction: leading fraction of the trace excluded from the
            reported ratio (cold-start fill distorts small caches less this
            way; the paper's long trace makes its cold start negligible).
    """
    if not trace:
        raise ConfigurationError("empty trace")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    store = KeyValueStore(
        capacity_bytes=capacity_bytes,
        default_item_size=item_size,
    )
    warmup_end = int(len(trace) * warmup_fraction)
    hits = 0
    measured = 0
    seen = set()
    for index, record in enumerate(trace):
        value = store.get(record.key, record.time)
        if value is None:
            store.set(record.key, True, now=record.time, size=item_size)
        if index >= warmup_end:
            measured += 1
            if value is not None:
                hits += 1
        seen.add(record.key)
    return HitRatioPoint(
        hit_ratio=hits / measured if measured else 0.0,
        distinct_keys=len(seen),
    )


def sweep_cache_sizes(
    trace: Sequence[TraceRecord],
    capacities: Sequence[int],
    item_size: int = 4096,
) -> List[HitRatioPoint]:
    """Fig. 6: hit ratio at each capacity (fresh cache per point)."""
    return [
        simulate_hit_ratio(trace, capacity, item_size=item_size)
        for capacity in capacities
    ]
