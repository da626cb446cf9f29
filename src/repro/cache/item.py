"""Cache items — the ``(key, data)`` pairs of the paper's Section II.

The paper assumes every cached object has the same size (fixed-size pieces,
as in GFS/HDFS/Ceph chunking); we default ``size`` to the paper's 4 KB page
unit (Section VI-B) but keep it a per-item field so variable-size workloads
remain expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: The paper's Fig. 6 setting: "4KB data per page".
DEFAULT_ITEM_SIZE = 4096


@dataclass(slots=True)
class CacheItem:
    """One ``(key, data)`` pair stored by a cache server.

    Attributes:
        key: the data key (page title, user id, ...).
        value: the cached payload.
        size: accounting size in bytes (capacity is enforced against this).
        created_at: simulation time the item was linked.
        expires_at: absolute expiry time, or ``None`` for no expiry.
        flags: opaque client flags (memcached protocol compatibility).
    """

    key: str
    value: Any
    size: int = DEFAULT_ITEM_SIZE
    created_at: float = 0.0
    expires_at: Optional[float] = None
    flags: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"item size must be >= 0, got {self.size}")

    def expired(self, now: float) -> bool:
        """True if the item's absolute expiry has passed."""
        return self.expires_at is not None and now >= self.expires_at
