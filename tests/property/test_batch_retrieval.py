"""Property: the planner is Algorithm 2, for any batch shape and any
replication factor.

For any key set, any per-key cache placement, any transition state, any
number of replica rings and any set of dead servers,
:meth:`RetrievalEngine.retrieve_many` must (a) agree with an independent,
straight-line transcription of the paper's Algorithm 2 over read plans —
same value, same :class:`FetchPath`, same owners, same serving server and
probe count, same write-backs per key — and (b) be batch-shape invariant:
a batch of N keys returns the outcomes, the :class:`FetchStats` counts,
and leaves the cluster state of N batches of one.  Every driver's
``fetch`` / ``fetch_many`` rests on both.
"""

from collections import Counter
from typing import NamedTuple, Optional
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.hashing import ring_position
from repro.core import retrieval
from repro.core.retrieval import (
    FetchPath,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
    WriteBackMulti,
)
from repro.core.placement import place_virtual_nodes
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs
from tests.conftest import in_transition

RING_SIZE = 2 ** 20
ROUTER = ProteusRouter(5, ring_size=RING_SIZE)
#: replicas -> router; one replica ring is the unreplicated router
ROUTERS = {
    1: ROUTER,
    2: ProteusRouter(5, RING_SIZE, replicas=2),
    3: ProteusRouter(5, RING_SIZE, replicas=3),
}
STEADY = RoutingEpochs(new=4, old=None, transition=None)


PLACEMENT = place_virtual_nodes(5, RING_SIZE).build_ring()


def read_plan(key, num_active, replicas):
    """The key's distinct owners, ring 0's first — from the hash and the
    placement table alone."""
    table = PLACEMENT.compiled_for(num_active)
    owners = []
    for ring in range(replicas):
        owner = table.lookup(ring_position(key, RING_SIZE, replica=ring))
        if owner not in owners:
            owners.append(owner)
    return owners


class Expected(NamedTuple):
    value: object
    path: FetchPath
    new_id: int
    old_id: Optional[int]
    #: ``(server_id, key, value)`` write-backs that land (live owners)
    writes: list
    served_by: Optional[int]
    probes: int
    #: degraded events: one per dead server in the way
    faults: list


def algorithm_2(key, epochs, stores, db, replicas=1, dead=()):
    """The paper's Algorithm 2 for one key, straight-line over dict state
    and the transition's digests.

    The reference the engine is held to: no generators, no commands, no
    engine helpers.  A dead server answers nothing — the read moves on to
    the key's next owner — and takes no write-back; its digest was
    broadcast before it died, so it still answers.
    """
    new = read_plan(key, epochs.new, replicas)
    faults, probes = [], 0

    def done(value, path, old_id, served_by):
        targets = [owner for owner in new if owner != served_by]
        return Expected(
            value, path, new[0], old_id,
            [(owner, key, value) for owner in targets if owner not in dead],
            served_by, probes,
            faults + ["writeback"] * sum(o in dead for o in targets),
        )

    for owner in new:  # line 3: a hit at a new owner
        if owner in dead:
            faults.append("probe_new")
            continue
        probes += 1
        value = stores.get(owner, {}).get(key)
        if value is not None:
            return done(value, FetchPath.HIT_NEW, None, owner)
    old_id, path = None, FetchPath.MISS_DB
    if epochs.old is not None:
        old = read_plan(key, epochs.old, replicas)
        old_id = old[0]
        for owner in sorted(set(old) - set(new)):  # the ceded owners
            if not epochs.transition.digest_hit(owner, key):
                continue
            if owner in dead:
                faults.append("probe_old")
                continue
            probes += 1
            value = stores.get(owner, {}).get(key)
            if value is not None:  # line 7: hot data at an old owner
                return done(value, FetchPath.HIT_OLD, old_id, owner)
            path = FetchPath.FALSE_POSITIVE_DB  # the digest lied
    if faults:
        path = FetchPath.DEGRADED_DB
    # line 10: the authoritative store never misses
    return done(db[key], path, old_id, None)


class StoreDriver:
    """Dict-backed executor of the engine's command rounds."""

    def __init__(self, stores, db, dead=()):
        self.stores = {sid: dict(store) for sid, store in stores.items()}
        self.db = db
        self.dead = dead
        #: server ids probed, in order
        self.probed = []
        #: (server_id, key, value) per write-back item
        self.writes = []

    def _answer(self, command):
        if getattr(command, "server_id", None) in self.dead:
            return SERVER_UNAVAILABLE
        if isinstance(command, ProbeCacheMulti):
            self.probed.append(command.server_id)
            store = self.stores.get(command.server_id, {})
            return {k: store[k] for k in command.keys if k in store}
        if isinstance(command, ReadDatabase):
            return self.db[command.key]
        if isinstance(command, WriteBackMulti):
            store = self.stores.setdefault(command.server_id, {})
            for key, value in command.items:
                store[key] = value
                self.writes.append((command.server_id, key, value))
            return None
        raise AssertionError(f"unexpected command {command!r}")

    def run(self, generator):
        answers = None
        try:
            while True:
                answers = tuple(
                    self._answer(command) for command in generator.send(answers)
                )
        except StopIteration as stop:
            return stop.value


#: per-key placement: nowhere, at a new owner, or at an old owner with
#: that owner's digest advertising it (the "hot data" state).
PLACEMENTS = st.sampled_from(["absent", "cached_new", "hot_old", "lying_digest"])


@st.composite
def cluster_states(draw):
    replicas = draw(st.sampled_from([1, 2, 3]))
    indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=400),
            min_size=1, max_size=25, unique=True,
        )
    )
    draining = draw(st.booleans())
    epochs = RoutingEpochs(3, 5, None) if draining else STEADY
    stores, digests, db = {}, {}, {}
    keys = []
    for i in indexes:
        key = f"page:{i}"
        keys.append(key)
        placement = draw(PLACEMENTS)
        ring = draw(st.integers(min_value=0, max_value=2))  # which owner
        db[key] = f"db-{key}"
        new = read_plan(key, epochs.new, replicas)
        new_id = new[ring % len(new)]
        if placement == "cached_new":
            stores.setdefault(new_id, {})[key] = f"cached-{key}"
        elif epochs.in_transition and placement in ("hot_old", "lying_digest"):
            old = read_plan(key, epochs.old, replicas)
            old_id = old[ring % len(old)]
            # (or every old owner advertises it and all but one lie)
            for owner in old if draw(st.booleans()) else [old_id]:
                digests.setdefault(owner, set()).add(key)
            if placement == "hot_old":
                stores.setdefault(old_id, {})[key] = f"hot-{key}"
    if draining:  # the digests are the transition's broadcast snapshots
        epochs = in_transition(5, 3, digests)
    return replicas, keys, epochs, stores, db


#: chunk bounds: one key per command, two, and the shipped bound
CHUNKS = st.sampled_from([1, 2, retrieval.MAX_MULTIGET_KEYS])
DEAD = st.sets(st.integers(min_value=0, max_value=4), max_size=3)


@given(state=cluster_states(), chunk=CHUNKS)
@settings(max_examples=120, deadline=None)
def test_batch_matches_straight_line_algorithm_2(state, chunk):
    replicas, keys, epochs, stores, db = state
    engine = RetrievalEngine(ROUTERS[replicas])
    driver = StoreDriver(stores, db)
    with patch.object(retrieval, "MAX_MULTIGET_KEYS", chunk):
        outcomes = driver.run(engine.retrieve_many(keys, epochs))

    expected_stores = {sid: dict(store) for sid, store in stores.items()}
    expected_writes = []
    expected_paths = Counter()
    failovers = 0
    assert set(outcomes) == set(keys)
    for key in keys:
        value, path, new_id, old_id, writes, served_by, probes, _ = algorithm_2(
            key, epochs, stores, db, replicas
        )
        outcome = outcomes[key]
        assert outcome.served_by == served_by, key
        assert outcome.probes == probes, key
        failovers += path is FetchPath.HIT_NEW and served_by != new_id
        assert outcome.value == value, key
        assert outcome.path is path, key
        assert outcome.new_server == new_id, key
        assert outcome.old_server == old_id, key
        assert not outcome.degraded
        expected_paths[path] += 1
        expected_writes.extend(writes)
        for server_id, _, written in writes:
            expected_stores.setdefault(server_id, {})[key] = written
    assert sorted(driver.writes) == sorted(expected_writes)
    assert driver.stores == expected_stores
    assert {p: n for p, n in engine.stats.counts.items() if n} == expected_paths
    assert engine.stats.degraded_events == 0
    assert engine.stats.failovers == failovers


@given(state=cluster_states(), chunk=CHUNKS, dead=DEAD)
@settings(max_examples=120, deadline=None)
def test_dead_servers_are_served_around_as_the_straight_line_says(
    state, chunk, dead
):
    replicas, keys, epochs, stores, db = state
    engine = RetrievalEngine(ROUTERS[replicas])
    driver = StoreDriver(stores, db, dead)
    with patch.object(retrieval, "MAX_MULTIGET_KEYS", chunk):
        outcomes = driver.run(engine.retrieve_many(keys, epochs))

    expected_writes = []
    expected_events = Counter()
    for key in keys:
        want = algorithm_2(key, epochs, stores, db, replicas, dead)
        outcome = outcomes[key]
        assert (
            outcome.value, outcome.path, outcome.new_server,
            outcome.old_server, outcome.served_by, outcome.probes,
        ) == want[:4] + want[5:7], key
        assert outcome.degraded == bool(want.faults), key
        assert want.served_by not in dead
        expected_writes.extend(want.writes)
        expected_events.update(want.faults)
    assert sorted(driver.writes) == sorted(expected_writes)
    assert {e: n for e, n in engine.stats.degraded.items() if n} == expected_events
    assert engine.stats.failovers == sum(o.failover for o in outcomes.values())


@given(state=cluster_states(), chunk=CHUNKS, dead=DEAD)
@settings(max_examples=120, deadline=None)
def test_batch_outcomes_equal_sequential_outcomes(state, chunk, dead):
    """A batch of N equals N batches of one — for every replication
    factor, whichever servers are dead."""
    replicas, keys, epochs, stores, db = state
    batch_engine = RetrievalEngine(ROUTERS[replicas])
    batch_driver = StoreDriver(stores, db, dead)
    with patch.object(retrieval, "MAX_MULTIGET_KEYS", chunk):
        batched = batch_driver.run(batch_engine.retrieve_many(keys, epochs))

    seq_engine = RetrievalEngine(ROUTERS[replicas])
    seq_driver = StoreDriver(stores, db, dead)
    sequential = {
        key: seq_driver.run(seq_engine.retrieve_many([key], epochs))[key]
        for key in keys
    }

    assert batched == sequential
    assert batch_engine.stats == seq_engine.stats
    # Same final cluster state: every write-back landed identically.
    assert batch_driver.stores == seq_driver.stores
    assert sorted(batch_driver.writes) == sorted(seq_driver.writes)


@given(state=cluster_states())
@settings(max_examples=60, deadline=None)
def test_batch_probes_each_server_at_most_once_per_epoch(state):
    replicas, keys, epochs, stores, db = state
    # the shipped chunk bound (64) never splits here
    engine = RetrievalEngine(ROUTERS[replicas])
    driver = StoreDriver(stores, db)
    driver.run(engine.retrieve_many(keys, epochs))
    # New-epoch probes + old-epoch probes: each server at most once each
    # per ring round.
    epoch_count = (2 if epochs.in_transition else 1) * replicas
    for server_id, count in Counter(driver.probed).items():
        assert count <= epoch_count, (server_id, driver.probed)
