"""Shared fixtures for the proteus-repro test suite."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.bloom.bloom import BloomFilter
from repro.core.router import ProteusRouter
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


def in_transition(n_old: int, n_new: int, claims=None) -> RoutingEpochs:
    """Routing epochs inside an ``n_old -> n_new`` drain window.  Each
    ``{server_id: keys}`` entry of *claims* becomes that server's broadcast
    digest: a real snapshot holding those keys, wide enough that a test's
    other keys read as absent (the filter is deterministic, so they always
    do).  A server without an entry has no snapshot: all-False."""
    digests = {}
    for server_id, keys in (claims or {}).items():
        digests[server_id] = BloomFilter(1 << 16)
        digests[server_id].update(keys)
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
