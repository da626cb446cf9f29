"""Property: the planner is Algorithm 2, for any batch shape.

For any key set, any per-key cache placement, and any transition state,
:meth:`RetrievalEngine.retrieve_many` must (a) agree with an independent,
straight-line transcription of the paper's Algorithm 2 — same value, same
:class:`FetchPath`, same owners, same write-backs per key — and (b) be
batch-shape invariant: a batch of N keys returns the outcomes, the
:class:`FetchStats` counts, and leaves the cluster state of N batches of
one.  Every driver's ``fetch`` / ``fetch_many`` rests on both.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retrieval import (
    CheckDigestMulti,
    FetchPath,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalEngine,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs, Transition

ROUTER = ProteusRouter(5, ring_size=2 ** 20)
STEADY = RoutingEpochs(new=4, old=None, transition=None)
DRAINING = RoutingEpochs(
    new=3, old=5,
    transition=Transition(n_old=5, n_new=3, started_at=0.0, ttl=60.0),
)


def algorithm_2(key, epochs, stores, digests, db):
    """The paper's Algorithm 2 for one key, straight-line over dict state.

    The reference the engine is held to: no generators, no commands, no
    engine helpers.  Returns ``(value, path, new_id, old_id, writes)``
    where ``writes`` lists the ``(server_id, key, value)`` write-backs.
    """
    new_id = ROUTER.route(key, epochs.new)
    value = stores.get(new_id, {}).get(key)
    if value is not None:  # line 3: hit at the new owner
        return value, FetchPath.HIT_NEW, new_id, None, []
    old_id, path = None, FetchPath.MISS_DB
    if epochs.old is not None:
        old_id = ROUTER.route(key, epochs.old)
        if old_id != new_id and key in digests.get(old_id, ()):
            value = stores.get(old_id, {}).get(key)
            if value is not None:  # line 7: hot data at the old owner
                return (
                    value, FetchPath.HIT_OLD, new_id, old_id,
                    [(new_id, key, value)],
                )
            path = FetchPath.FALSE_POSITIVE_DB  # the digest lied
    value = db[key]  # line 10: the authoritative store never misses
    return value, path, new_id, old_id, [(new_id, key, value)]


class StoreDriver:
    """Dict-backed executor of the engine's command rounds."""

    def __init__(self, stores, db, digests):
        self.stores = {sid: dict(store) for sid, store in stores.items()}
        self.db = db
        self.digests = digests
        #: server ids probed, in order
        self.probed = []
        #: (server_id, key, value) per write-back item
        self.writes = []

    def _answer(self, command):
        if isinstance(command, ProbeCacheMulti):
            self.probed.append(command.server_id)
            store = self.stores.get(command.server_id, {})
            return {k: store[k] for k in command.keys if k in store}
        if isinstance(command, CheckDigestMulti):
            digest = self.digests.get(command.server_id, ())
            return [k in digest for k in command.keys]
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


#: per-key placement: nowhere, at the new owner, or at the old owner with
#: the old owner's digest advertising it (the "hot data" state).
PLACEMENTS = st.sampled_from(["absent", "cached_new", "hot_old", "lying_digest"])


@st.composite
def cluster_states(draw):
    indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=400),
            min_size=1, max_size=25, unique=True,
        )
    )
    epochs = draw(st.sampled_from([STEADY, DRAINING]))
    stores, digests, db = {}, {}, {}
    keys = []
    for i in indexes:
        key = f"page:{i}"
        keys.append(key)
        placement = draw(PLACEMENTS)
        db[key] = f"db-{key}"
        new_id = ROUTER.route(key, epochs.new)
        if placement == "cached_new":
            stores.setdefault(new_id, {})[key] = f"cached-{key}"
        elif epochs.in_transition and placement in ("hot_old", "lying_digest"):
            old_id = ROUTER.route(key, epochs.old)
            digests.setdefault(old_id, set()).add(key)
            if placement == "hot_old":
                stores.setdefault(old_id, {})[key] = f"hot-{key}"
    return keys, epochs, stores, digests, db


CHUNKS = st.sampled_from([0, 1, 2, 64])


@given(state=cluster_states(), chunk=CHUNKS)
@settings(max_examples=120, deadline=None)
def test_batch_matches_straight_line_algorithm_2(state, chunk):
    keys, epochs, stores, digests, db = state
    engine = RetrievalEngine(
        ROUTER, config=RetrievalConfig(max_multiget_keys=chunk)
    )
    driver = StoreDriver(stores, db, digests)
    outcomes = driver.run(engine.retrieve_many(keys, epochs))

    expected_stores = {sid: dict(store) for sid, store in stores.items()}
    expected_writes = []
    expected_paths = Counter()
    assert set(outcomes) == set(keys)
    for key in keys:
        value, path, new_id, old_id, writes = algorithm_2(
            key, epochs, stores, digests, db
        )
        outcome = outcomes[key]
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


@given(state=cluster_states(), chunk=CHUNKS)
@settings(max_examples=120, deadline=None)
def test_batch_outcomes_equal_sequential_outcomes(state, chunk):
    """A batch of N equals N batches of one."""
    keys, epochs, stores, digests, db = state
    batch_engine = RetrievalEngine(
        ROUTER, config=RetrievalConfig(max_multiget_keys=chunk)
    )
    batch_driver = StoreDriver(stores, db, digests)
    batched = batch_driver.run(batch_engine.retrieve_many(keys, epochs))

    seq_engine = RetrievalEngine(ROUTER)
    seq_driver = StoreDriver(stores, db, digests)
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
    keys, epochs, stores, digests, db = state
    engine = RetrievalEngine(ROUTER)  # default chunking (64) never splits here
    driver = StoreDriver(stores, db, digests)
    driver.run(engine.retrieve_many(keys, epochs))
    # New-epoch probes + old-epoch probes: each server at most once each.
    epoch_count = 2 if epochs.in_transition else 1
    for server_id, count in Counter(driver.probed).items():
        assert count <= epoch_count, (server_id, driver.probed)
