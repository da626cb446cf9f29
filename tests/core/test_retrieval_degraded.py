"""Degraded-mode engine paths: the engine serves *around* cache faults.

A driver may answer any probe or write-back with ``SERVER_UNAVAILABLE``; these tests pin the contract on batches of one and
on whole pages alike: the value is always served (from the old owner or
the database), the path is ``DEGRADED_DB`` exactly when a fault *forced*
the database read, a failed write-back degrades the outcome without
changing its path, and the per-event counters in ``FetchStats`` of a page
of N keys equal those of N pages of one.
"""

from repro.core.retrieval import (
    FetchPath,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs
from tests.conftest import in_transition

ROUTER = ProteusRouter(4, ring_size=2 ** 20)
STEADY = RoutingEpochs(new=3, old=None, transition=None)
#: the 4 -> 3 drain; a scale-up (3 -> 4) drain instead spreads the old
#: owners of moved keys over several servers, so killing one still leaves
#: other keys' HIT_OLD path alive
SHRINK, GROW = (4, 3), (3, 4)


def draining(claimed=(), resize=SHRINK):
    """Epochs inside the *resize* drain window, every server's broadcast
    digest claiming the keys in *claimed*."""
    n_old, n_new = resize
    return in_transition(
        n_old, n_new, {sid: claimed for sid in range(max(resize))}
    )


def remapped_key():
    for i in range(10_000):
        key = f"page:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            return key
    raise AssertionError("no remapped key found")


KEY = remapped_key()
NEW_ID = ROUTER.route(KEY, 3)
OLD_ID = ROUTER.route(KEY, 4)


class FaultySubstrate:
    """A pure in-memory substrate with a per-server health map."""

    def __init__(self, down=(), stores=None):
        self.down = set(down)
        self.stores = stores or {}
        self.db_reads = []
        self.written = []

    def _value(self, server_id, key):
        return self.stores.get(server_id, {}).get(key)

    def one(self, engine, key, epochs):
        """Retrieve *key* as a batch of one; returns its outcome."""
        return self.batch(engine, [key], epochs)[key]

    def batch(self, engine, keys, epochs):
        gen = engine.retrieve_many(keys, epochs)
        answers = None
        try:
            while True:
                round_ = gen.send(answers)
                answers = tuple(self._answer(command) for command in round_)
        except StopIteration as stop:
            return stop.value

    def _answer(self, command):
        if isinstance(command, ProbeCacheMulti):
            if command.server_id in self.down:
                return SERVER_UNAVAILABLE
            hits = {}
            for key in command.keys:
                value = self._value(command.server_id, key)
                if value is not None:
                    hits[key] = value
            return hits
        if isinstance(command, WriteBackMulti):
            if command.server_id in self.down:
                return SERVER_UNAVAILABLE
            for key, _ in command.items:
                self.written.append((command.server_id, key))
            return None
        if isinstance(command, WaitForLeader):
            return False
        if isinstance(command, ReadDatabase):
            self.db_reads.append(command.key)
            return f"db:{command.key}"
        raise AssertionError(f"unexpected command {command!r}")


class TestScalarDegradedPaths:
    def test_dead_new_owner_forces_degraded_db(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(down={NEW_ID})
        outcome = substrate.one(engine, KEY, STEADY)
        assert outcome.path is FetchPath.DEGRADED_DB
        assert outcome.value == f"db:{KEY}"
        assert outcome.degraded
        assert outcome.touched_database
        # probe skipped AND the write-back onto the dead server skipped
        assert engine.stats.degraded["probe_new"] == 1
        assert engine.stats.degraded["writeback"] == 1
        assert engine.stats.database_fraction == 1.0

    def test_dead_old_owner_on_digest_hit_degrades(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(down={OLD_ID})
        outcome = substrate.one(engine, KEY, draining({KEY}))
        assert outcome.path is FetchPath.DEGRADED_DB
        assert engine.stats.degraded["probe_old"] == 1
        # the value was still installed at the (healthy) new owner
        assert (NEW_ID, KEY) in substrate.written

    def test_failed_writeback_never_fails_a_hit_old(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(
            down={NEW_ID}, stores={OLD_ID: {KEY: "hot"}}
        )
        outcome = substrate.one(engine, KEY, draining({KEY}))
        # The old owner still has the hot copy: served, not degraded to DB.
        assert outcome.path is FetchPath.HIT_OLD
        assert outcome.value == "hot"
        assert outcome.degraded
        assert not outcome.touched_database
        assert engine.stats.degraded["probe_new"] == 1
        assert engine.stats.degraded["writeback"] == 1
        assert substrate.db_reads == []

    def test_failed_writeback_after_plain_miss_keeps_miss_path(self):
        engine = RetrievalEngine(ROUTER)

        # healthy probe (miss), healthy DB, then the write-back fails
        class WritebackDown(FaultySubstrate):
            def _answer(self, command):
                if isinstance(command, WriteBackMulti):
                    return SERVER_UNAVAILABLE
                return super()._answer(command)

        substrate = WritebackDown()
        outcome = substrate.one(engine, KEY, STEADY)
        # no fault forced the DB read — an ordinary miss stays MISS_DB
        assert outcome.path is FetchPath.MISS_DB
        assert outcome.degraded
        assert engine.stats.degraded["writeback"] == 1
        assert engine.stats.counts[FetchPath.DEGRADED_DB] == 0

    def test_healthy_paths_record_nothing_degraded(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate()
        outcome = substrate.one(engine, KEY, draining({KEY}))
        assert outcome.path is FetchPath.FALSE_POSITIVE_DB
        assert not outcome.degraded
        assert engine.stats.degraded_events == 0


class TestBatchScalarParity:
    """A page of N keys equals N pages of one, fault for fault."""

    def run_both(
        self, down=(), digest_yes=(), stores=None, keys=None, resize=SHRINK
    ):
        keys = keys or [f"page:{i}" for i in range(24)]
        epochs = draining(digest_yes, resize)
        single_engine = RetrievalEngine(ROUTER)
        batch_engine = RetrievalEngine(ROUTER)

        def fresh():
            return FaultySubstrate(
                down=down,
                stores={
                    sid: dict(items) for sid, items in (stores or {}).items()
                },
            )

        singles_substrate = fresh()
        singles = {
            key: singles_substrate.one(single_engine, key, epochs)
            for key in keys
        }
        batched = fresh().batch(batch_engine, keys, epochs)
        assert set(singles) == set(batched)
        for key in keys:
            a, b = singles[key], batched[key]
            assert a.path == b.path, key
            assert a.value == b.value, key
            assert a.degraded == b.degraded, key
        assert single_engine.stats.counts == batch_engine.stats.counts
        assert single_engine.stats.degraded == batch_engine.stats.degraded
        return single_engine.stats

    def test_parity_with_one_dead_server(self):
        stats = self.run_both(down={0})
        assert stats.degraded_events > 0
        assert stats.counts[FetchPath.DEGRADED_DB] > 0

    def test_parity_with_dead_old_owner_and_hot_copies(self):
        # Scale-up drain: moved keys come from several old owners, so
        # killing one exercises the dead-old-owner branch while the other
        # keys' hot copies still serve HIT_OLD.
        keys = [f"page:{i}" for i in range(24)]
        moved = [k for k in keys if ROUTER.route(k, 3) != ROUTER.route(k, 4)]
        dead = ROUTER.route(moved[0], 3)
        assert any(ROUTER.route(k, 3) != dead for k in moved)
        stores = {}
        for key in keys:
            stores.setdefault(ROUTER.route(key, 3), {})[key] = f"hot:{key}"
        stats = self.run_both(
            down={dead}, digest_yes=set(keys), stores=stores, keys=keys,
            resize=GROW,
        )
        assert stats.counts[FetchPath.HIT_OLD] > 0
        assert stats.degraded["probe_old"] > 0

    def test_parity_healthy_baseline(self):
        stats = self.run_both()
        assert stats.degraded_events == 0
