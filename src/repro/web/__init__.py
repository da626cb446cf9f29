"""Web-server tier: Algorithm 2 data retrieval and connection pooling."""

from repro.web.frontend import (
    DEFAULT_CACHE_OP_LATENCY,
    DEFAULT_WEB_OVERHEAD,
    FetchPath,
    FetchResult,
    FetchStats,
    WebServer,
)
from repro.web.pool import ConnectionPool, PoolRegistry

__all__ = [
    "ConnectionPool",
    "DEFAULT_CACHE_OP_LATENCY",
    "DEFAULT_WEB_OVERHEAD",
    "FetchPath",
    "FetchResult",
    "FetchStats",
    "PoolRegistry",
    "WebServer",
]
