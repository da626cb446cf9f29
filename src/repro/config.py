"""Cluster configuration — the out-of-band state every web server shares.

The paper's objective 3 (Section I) demands that independent web servers
make *identical* routing decisions with no coordination.  Everything they
need is static configuration: the fleet (endpoints, in provisioning
order), the digest geometry, the TTL, and the replication factor.
:class:`ClusterConfig` is that document — JSON on disk, validated on load —
plus builders for the router and the live TCP frontend, so "deploy another
web server" is `ClusterConfig.load(path).build_frontend(db)`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.bloom.config import BloomConfig, optimal_config
from repro.errors import ConfigurationError

CONFIG_VERSION = 3


@dataclass(frozen=True)
class DigestGeometry:
    """The cluster-wide counting-Bloom-filter shape (Section IV-B)."""

    num_counters: int
    counter_bits: int
    num_hashes: int

    def __post_init__(self) -> None:
        if self.num_counters < 1 or self.counter_bits < 1 or self.num_hashes < 1:
            raise ConfigurationError(f"invalid digest geometry: {self}")

    @classmethod
    def from_bloom_config(cls, cfg: BloomConfig) -> "DigestGeometry":
        return cls(cfg.num_counters, cfg.counter_bits, cfg.num_hashes)

    def to_bloom_config(self) -> BloomConfig:
        """A BloomConfig carrying this geometry (bounds recomputed as 0/0 —
        geometry is authoritative once deployed)."""
        return BloomConfig(
            num_counters=self.num_counters,
            counter_bits=self.counter_bits,
            num_hashes=self.num_hashes,
            kappa=0,
            fp_bound=0.0,
            fn_bound=0.0,
        )


@dataclass
class ClusterConfig:
    """One cache cluster's shared static configuration.

    Attributes:
        endpoints: ``(host, port)`` per cache server, **in provisioning
            order** — the order is part of the contract (Section III-A).
        digest: the digest geometry all servers and web tiers share.
        ttl_seconds: the drain-window length.
        replicas: replica rings (Section III-E); 1 = unreplicated.
        name: free-form deployment label.

    The JSON form also carries ``version`` (:data:`CONFIG_VERSION`);
    loading a file of another version fails.
    """

    endpoints: List[Tuple[str, int]]
    digest: DigestGeometry
    ttl_seconds: float = 60.0
    replicas: int = 1
    name: str = "proteus"

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ConfigurationError("config needs at least one endpoint")
        normalized = []
        for entry in self.endpoints:
            host, port = entry
            if not isinstance(host, str) or not host:
                raise ConfigurationError(f"bad endpoint host: {entry!r}")
            port = int(port)
            if not 0 < port < 65536:
                raise ConfigurationError(f"bad endpoint port: {entry!r}")
            normalized.append((host, port))
        self.endpoints = normalized
        if self.ttl_seconds <= 0:
            raise ConfigurationError(
                f"ttl_seconds must be > 0, got {self.ttl_seconds}"
            )
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")

    @property
    def num_servers(self) -> int:
        return len(self.endpoints)

    # -------------------------------------------------------------- builders

    @classmethod
    def for_fleet(
        cls,
        endpoints: List[Tuple[str, int]],
        expected_keys_per_server: int,
        **kwargs,
    ) -> "ClusterConfig":
        """Config with the Eq. 10 optimal digest for the expected key count."""
        return cls(
            endpoints=endpoints,
            digest=DigestGeometry.from_bloom_config(
                optimal_config(expected_keys_per_server)
            ),
            **kwargs,
        )

    def build_router(self):
        """The deterministic router this config prescribes."""
        from repro.core.router import ProteusRouter

        return ProteusRouter(self.num_servers, replicas=self.replicas)

    def build_frontend(self, database, initial_active: Optional[int] = None):
        """A live-TCP :class:`~repro.net.webtier.AsyncProteusFrontend`.

        Raises:
            ConfigurationError: ``replicas > 1`` — the live frontend routes
                over one ring; it would silently ignore the knob.
        """
        from repro.net.webtier import AsyncProteusFrontend

        if self.replicas > 1:
            raise ConfigurationError(
                f"replicas={self.replicas}: the live frontend is unreplicated;"
                " replica rings run in the simulated tier (build_router)"
            )
        return AsyncProteusFrontend(
            self.endpoints,
            self.digest.to_bloom_config(),
            database,
            initial_active=initial_active,
        )

    # --------------------------------------------------------- serialization

    def to_json(self) -> str:
        """Stable, human-diffable JSON."""
        payload = asdict(self)
        payload["digest"] = asdict(self.digest)
        payload["endpoints"] = [list(ep) for ep in self.endpoints]
        payload["version"] = CONFIG_VERSION
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ClusterConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("malformed config: not a JSON object")
        version = payload.pop("version", None)
        if version != CONFIG_VERSION:
            raise ConfigurationError(
                f"unsupported config version {version} "
                f"(this build reads {CONFIG_VERSION})"
            )
        try:
            digest = DigestGeometry(**payload.pop("digest"))
            endpoints = [tuple(ep) for ep in payload.pop("endpoints")]
            return cls(endpoints=endpoints, digest=digest, **payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ClusterConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
