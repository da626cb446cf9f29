"""Shared fixtures for the proteus-repro test suite."""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_right

import pytest

from repro.bloom.bloom import BloomFilter
from repro.bloom.counting import CountingBloomFilter
from repro.core.router import ProteusRouter
from repro.errors import RoutingError
from repro.core.transition import RoutingEpochs, Transition
from repro.provisioning.policies import ProvisioningSchedule
from repro.workload.trace import TraceRecord


#: module-level ``pytestmark``: a coroutine that is neither awaited nor
#: closed warns from its finalizer, which pytest reports as unraisable —
#: turn both into failures (and ``gc.collect()`` inside the test)
LEAKED_COROUTINES_FAIL = [
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    ),
]


async def until(condition) -> None:
    """Poll *condition* (bounded, ~1 ms apart) until it holds — for state
    that changes on the far side of a real socket."""
    for _ in range(5000):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("condition never became true")


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for sampling in tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def proteus6() -> ProteusRouter:
    """A small Proteus router (shared because placement is deterministic)."""
    return ProteusRouter(6, ring_size=2 ** 20)


@pytest.fixture
def tiny_schedule() -> ProvisioningSchedule:
    """A 4-slot schedule with one scale-down and one scale-up."""
    return ProvisioningSchedule(10.0, [3, 2, 2, 3])


@pytest.fixture
def small_trace() -> list:
    """A deterministic 400-record trace over 40 seconds and 60 keys."""
    rng = random.Random(7)
    records = []
    for i in range(400):
        when = i * 0.1
        key = f"page:{rng.randrange(60)}"
        records.append(TraceRecord(when, key))
    return records


def replies_owed(client) -> int:
    """Replies a client still awaits: one per command written, one per
    pipelined burst (``set_multi``, ``get_many``)."""
    return 0 if client._protocol is None else len(client._protocol.pending)


def ring_owner(ring, position, is_active=None) -> int:
    """The owner of *position* by the definition every compiled table must
    match: the first virtual node clockwise of it whose server is active
    (a scan, where a table answers with one bisection)."""
    nodes = ring._nodes
    start = bisect_right(ring._positions, position % ring.size)
    for offset in range(len(nodes)):
        server = nodes[(start + offset) % len(nodes)].server
        if is_active is None or is_active(server):
            return server
    raise RoutingError("no active server on the ring")


def snapshot_of(keys, num_bits: int = 1 << 16, num_hashes: int = 4) -> BloomFilter:
    """A plain digest holding *keys*, built the one way the system builds
    one: as a counting filter's snapshot."""
    counting = CountingBloomFilter(num_bits, num_hashes=num_hashes)
    counting.add_many(keys)
    return counting.snapshot()


def in_transition(n_old: int, n_new: int, claims=None) -> RoutingEpochs:
    """Routing epochs inside an ``n_old -> n_new`` drain window.  Each
    ``{server_id: keys}`` entry of *claims* becomes that server's broadcast
    digest: a real snapshot holding those keys, wide enough that a test's
    other keys read as absent (the filter is deterministic, so they always
    do).  A server without an entry has no snapshot: all-False."""
    digests = {}
    for server_id, keys in (claims or {}).items():
        digests[server_id] = snapshot_of(keys)
    transition = Transition(n_old, n_new, 0.0, 60.0, digests)
    return RoutingEpochs(n_new, n_old, transition)


def record_consults(epochs: RoutingEpochs) -> list:
    """Record every ``digest_hit_many(server, keys)`` call on *epochs*'
    transition — the engine's digest checks — as ``(server, keys)``."""
    calls = []
    consult = epochs.transition.digest_hit_many

    def recording(server, keys):
        calls.append((server, tuple(keys)))
        return consult(server, keys)

    epochs.transition.digest_hit_many = recording
    return calls


def make_keys(count: int, prefix: str = "key", seed: int = 0) -> list:
    """Deterministic distinct keys for digest/routing tests."""
    rng = random.Random(seed)
    return [f"{prefix}:{rng.getrandbits(48):012x}:{i}" for i in range(count)]


def healthy(snapshot) -> bool:
    """A :class:`~repro.provisioning.health.HealthSnapshot` shows no
    impairment: nothing tripped, crashed, degrading or shedding."""
    return (
        not snapshot.unhealthy_servers
        and snapshot.degraded_events == 0
        and snapshot.shed == 0
    )
