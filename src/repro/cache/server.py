"""A memcached-like cache server with a built-in counting-Bloom-filter digest.

Mirrors the paper's modified memcached (Section V-A3): the store updates the
digest exactly when it links or unlinks an item, so it is consistent with
cache contents by construction.  The server also models the power states
``CacheCluster.scale_to`` drives it through::

    OFF --power_on--> ON --begin_drain--> DRAINING --power_off--> OFF

``DRAINING`` is the TTL window of a scale-down transition: the server still
answers gets (web servers pull "hot" data out of it on demand) but is no
longer an owner under the new mapping.  Powering off *loses all cached
data* — the whole point of the paper is making that loss unobservable.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import BloomConfig
from repro.bloom.counting import CountingBloomFilter
from repro.cache.store import KeyValueStore, default_digest_config
from repro.errors import CacheError, ConfigurationError


class PowerState(enum.Enum):
    """Where a server is in the provisioning lifecycle."""

    OFF = "off"
    ON = "on"
    DRAINING = "draining"

    @property
    def serves_requests(self) -> bool:
        """ON and DRAINING servers answer requests; OFF servers do not."""
        return self is not PowerState.OFF


class CacheServer:
    """One cache server: bounded store + digest + power state.

    Args:
        server_id: position in the fixed provisioning order (0-based).
        capacity_bytes: store capacity; the paper's Fig. 6 sweeps this.
        bloom_config: digest sizing; defaults to the Section IV-B optimum for
            the capacity-implied key count (``capacity / DEFAULT_ITEM_SIZE``).
        initially_on: start in ``ON`` (the common case for ``s_1..s_{n(0)}``).
    """

    def __init__(
        self,
        server_id: int,
        capacity_bytes: Optional[int] = None,
        bloom_config: Optional[BloomConfig] = None,
        initially_on: bool = True,
    ) -> None:
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id}")
        self.server_id = server_id
        if bloom_config is None:
            bloom_config = default_digest_config(capacity_bytes)
        self.bloom_config = bloom_config
        self.digest: CountingBloomFilter = bloom_config.build()
        self.store = KeyValueStore(capacity_bytes, self.digest)
        self.state = PowerState.ON if initially_on else PowerState.OFF

    # ------------------------------------------------------------- digest

    def snapshot_digest(self) -> BloomFilter:
        """The ``SET_BLOOM_FILTER`` + ``BLOOM_FILTER`` flow in one call.

        Collapses the counting filter to a plain bit array — the payload a
        web server receives at the start of a transition (a few hundred KB
        at most; the paper quotes "a few KB each" for its settings).
        """
        return self.digest.snapshot()

    # ---------------------------------------------------------------- ops

    def _require_power(self) -> None:
        if not self.state.serves_requests:
            raise CacheError(f"server {self.server_id} is powered off")

    def get(self, key: str, now: float = 0.0) -> Optional[Any]:
        """Value for *key* or ``None``; raises :class:`CacheError` when OFF."""
        self._require_power()
        return self.store.get(key, now)

    def get_many(self, keys, now: float = 0.0) -> dict:
        """Values for every key that hits (multiget, one call; misses are
        absent from the map); raises :class:`CacheError` when OFF."""
        self._require_power()
        return {
            key: item.value
            for key, item in self.store.get_many(keys, now).items()
        }

    def set(
        self,
        key: str,
        value: Any,
        now: float = 0.0,
        size: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        """Store *key*; raises :class:`CacheError` when OFF."""
        self._require_power()
        self.store.set(key, value, now=now, size=size, ttl=ttl)

    def delete(self, key: str, now: float = 0.0) -> bool:
        """Delete *key*; raises :class:`CacheError` when OFF."""
        self._require_power()
        return self.store.delete(key, now)

    @property
    def stats(self):
        """Operation counters (see :class:`repro.cache.stats.CacheStats`)."""
        return self.store.stats

    # --------------------------------------------------------- power state

    def power_on(self, now: float = 0.0) -> None:
        """Bring the server up *cold*: empty store, empty digest."""
        if self.state is PowerState.ON:
            return
        self.store.flush()
        self.state = PowerState.ON

    def begin_drain(self) -> None:
        """Enter the TTL drain window of a scale-down transition."""
        if self.state is not PowerState.ON:
            raise CacheError(
                f"server {self.server_id} cannot drain from state {self.state}"
            )
        self.state = PowerState.DRAINING

    def power_off(self, now: float = 0.0) -> None:
        """Shut down, discarding all cached data and the digest."""
        if self.state is PowerState.OFF:
            return
        self.store.flush()
        self.state = PowerState.OFF

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheServer(id={self.server_id}, state={self.state.value}, "
            f"items={len(self.store)})"
        )
