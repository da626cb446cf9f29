"""A socket-free :class:`~repro.net.transport.CacheTransport`: a scripted
pool hands out a client whose wire exchange is scripted, so the real
``MemcachedClient`` methods run up to the wire."""

from repro.net.client import MemcachedClient
from repro.net.transport import CacheTransport
from repro.resilience import ResiliencePolicy, RetryPolicy


class ScriptedClient(MemcachedClient):
    """A client whose every wire exchange plays the next scripted step:
    an exception is raised, anything else is the parsed reply (a pipelined
    burst is one exchange: ``{key: value}`` for a ``get_many``, the STORED
    count for a ``set_multi``; the last step repeats)."""

    def __init__(self, *script):
        super().__init__("127.0.0.1", 1)
        self.script = list(script)
        self.exchanges = 0

    async def _exchange(self, shape, payload):
        step = self.script[min(self.exchanges, len(self.script) - 1)]
        self.exchanges += 1
        if isinstance(step, BaseException):
            raise step
        return step


class ScriptedPool:
    """Stands in for a ``ConnectionPool``: leases out one scripted client,
    or fails every dial with *dial_error*."""

    def __init__(self, client=None, dial_error=None):
        self.client = client
        self.dial_error = dial_error
        self.acquires = 0
        self.leases = 0

    def acquire(self):
        self.acquires += 1
        if self.dial_error is not None:
            raise self.dial_error
        self.leases += 1
        return self.client

    def release(self, client):
        self.leases -= 1


def fast_retry(**overrides):
    kwargs = dict(max_attempts=3, base_delay=0.0)
    kwargs.update(overrides)
    return RetryPolicy(**kwargs)


def make(*script, dial_error=None, **policy):
    """A one-server transport over a scripted pool."""
    policy.setdefault("retry", fast_retry())
    transport = CacheTransport([("127.0.0.1", 1)], ResiliencePolicy(**policy))
    client = ScriptedClient(*script) if script else None
    pool = transport.pools[0] = ScriptedPool(client, dial_error)
    return transport, pool, client


def trip(transport, server_id=0):
    breaker = transport.breakers[server_id]
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    assert not breaker.allow()
