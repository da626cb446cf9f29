"""Tests for the sans-IO Algorithm-2 retrieval engine.

Drives the command generator by hand with scripted answers — no cache, no
database, no clock — which is exactly the point of the sans-IO core: the
branch logic is testable without any substrate at all.  The per-path
command sequences are pinned on batches of one (every round then holds
exactly one command), the grouping rules on larger batches.
"""

from repro.core import retrieval
from repro.core.retrieval import (
    FetchPath,
    FetchStats,
    LeaderWindowRegistry,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs
from tests.conftest import in_transition, record_consults


class ScriptedDriver:
    """Answers engine commands from a scripted table, recording the trace."""

    def __init__(self, answers):
        #: list of (command_type, answer); consumed in command order
        self.answers = list(answers)
        self.trace = []

    def _answer(self, command):
        self.trace.append(command)
        expected_type, answer = self.answers.pop(0)
        assert isinstance(command, expected_type), (
            f"expected {expected_type.__name__}, engine yielded {command!r}"
        )
        return answer

    def run(self, generator):
        answers = None
        try:
            while True:
                round_ = generator.send(answers)
                answers = tuple(self._answer(command) for command in round_)
        except StopIteration as stop:
            assert not self.answers, f"unconsumed script: {self.answers}"
            return stop.value

    def run_one(self, engine, key, epochs, **kwargs):
        """Retrieve *key* as a batch of one; returns its outcome."""
        return self.run(engine.retrieve_many([key], epochs, **kwargs))[key]


ROUTER = ProteusRouter(4, ring_size=2 ** 20)
KEY = "page:parity"
NEW_ID = ROUTER.route(KEY, 3)
OLD_ID = ROUTER.route(KEY, 4)

STEADY = RoutingEpochs(new=3, old=None, transition=None)
COALESCING = RetrievalConfig(coalesce_misses=True)

MISS = {}


def remapped_key():
    """A key whose owner differs between the 4-server and 3-server epochs."""
    for i in range(10_000):
        key = f"page:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            return key
    raise AssertionError("no remapped key found")


class TestUnreplicatedPaths:
    def test_hit_new_is_one_probe_no_writeback(self):
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver([(ProbeCacheMulti, {KEY: "value"})])
        outcome = driver.run_one(engine, KEY, STEADY)
        assert outcome.path is FetchPath.HIT_NEW
        assert outcome.value == "value"
        assert outcome.new_server == NEW_ID
        assert outcome.old_server is None
        assert not outcome.touched_database
        assert driver.trace == [ProbeCacheMulti(NEW_ID, (KEY,))]

    def test_miss_outside_transition_goes_to_db(self):
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, MISS), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        outcome = driver.run_one(engine, KEY, STEADY)
        assert outcome.path is FetchPath.MISS_DB
        assert outcome.touched_database
        assert driver.trace == [
            ProbeCacheMulti(NEW_ID, (KEY,)),
            ReadDatabase(KEY),
            WriteBackMulti(NEW_ID, ((KEY, "db"),)),
        ]

    def test_hit_old_pulls_from_old_owner_and_writes_back(self):
        key = remapped_key()
        new_id, old_id = ROUTER.route(key, 3), ROUTER.route(key, 4)
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, MISS),
                (ProbeCacheMulti, {key: "hot"}),
                (WriteBackMulti, None),
            ]
        )
        epochs = in_transition(4, 3, {old_id: [key]})
        outcome = driver.run_one(engine, key, epochs)
        assert outcome.path is FetchPath.HIT_OLD
        assert outcome.old_server == old_id
        # The digest check is local: no command between the two probes.
        assert driver.trace == [
            ProbeCacheMulti(new_id, (key,)),
            ProbeCacheMulti(old_id, (key,)),
            WriteBackMulti(new_id, ((key, "hot"),)),
        ]

    def test_digest_false_positive_classified(self):
        key = remapped_key()
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, MISS),
                (ProbeCacheMulti, MISS),  # old owner misses: digest lied
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        epochs = in_transition(4, 3, {ROUTER.route(key, 4): [key]})
        outcome = driver.run_one(engine, key, epochs)
        assert outcome.path is FetchPath.FALSE_POSITIVE_DB
        assert outcome.touched_database

    def test_digest_miss_skips_old_owner(self):
        key = remapped_key()
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, MISS), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        epochs = in_transition(4, 3, {ROUTER.route(key, 4): ()})
        consults = record_consults(epochs)
        outcome = driver.run_one(engine, key, epochs)
        assert outcome.path is FetchPath.MISS_DB
        assert consults == [(ROUTER.route(key, 4), (key,))]

    def test_same_owner_in_both_epochs_skips_digest(self):
        for i in range(10_000):
            key = f"page:{i}"
            if ROUTER.route(key, 4) == ROUTER.route(key, 3):
                break
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, MISS), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        epochs = in_transition(4, 3, {ROUTER.route(key, 4): [key]})
        consults = record_consults(epochs)
        outcome = driver.run_one(engine, key, epochs)
        assert outcome.path is FetchPath.MISS_DB
        assert consults == []

    def test_coalesced_follower_skips_db_and_writeback(self):
        engine = RetrievalEngine(ROUTER, config=COALESCING)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, MISS),
                (WaitForLeader, True),
                (ProbeCacheMulti, {KEY: "installed"}),
            ]
        )
        outcome = driver.run_one(engine, KEY, STEADY)
        assert outcome.path is FetchPath.COALESCED
        assert driver.trace[1] == WaitForLeader(KEY)
        assert not any(isinstance(c, ReadDatabase) for c in driver.trace)
        assert not any(isinstance(c, WriteBackMulti) for c in driver.trace)

    def test_no_leader_becomes_leader_and_announces(self):
        engine = RetrievalEngine(ROUTER, config=COALESCING)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, MISS),
                (WaitForLeader, False),
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run_one(engine, KEY, STEADY)
        assert outcome.path is FetchPath.MISS_DB
        read = next(c for c in driver.trace if isinstance(c, ReadDatabase))
        assert read.announce_leader

    def test_waited_but_still_missing_falls_to_db(self):
        # The leader's write-back was evicted before the follower's probe.
        engine = RetrievalEngine(ROUTER, config=COALESCING)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, MISS),
                (WaitForLeader, True),
                (ProbeCacheMulti, MISS),
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run_one(engine, KEY, STEADY)
        assert outcome.path is FetchPath.MISS_DB

    def test_no_wait_command_when_coalescing_disabled(self):
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, MISS), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        driver.run_one(engine, KEY, STEADY)
        read = next(c for c in driver.trace if isinstance(c, ReadDatabase))
        assert not read.announce_leader

    def test_stats_accumulate_across_retrievals(self):
        engine = RetrievalEngine(ROUTER)
        ScriptedDriver([(ProbeCacheMulti, {KEY: "v"})]).run_one(
            engine, KEY, STEADY
        )
        ScriptedDriver(
            [(ProbeCacheMulti, MISS), (ReadDatabase, "db"), (WriteBackMulti, None)]
        ).run_one(engine, KEY, STEADY)
        assert engine.stats.counts[FetchPath.HIT_NEW] == 1
        assert engine.stats.counts[FetchPath.MISS_DB] == 1
        assert engine.stats.total == 2
        assert engine.stats.database_fraction == 0.5

    def test_stats_labels_match_wire_names(self):
        stats = FetchStats()
        stats.counts[FetchPath.HIT_NEW] += 1
        # str mix-in: members compare and hash like their labels.
        assert FetchPath.HIT_NEW == "hit_new"
        assert stats.counts["hit_new"] == 1


class StoreDriver:
    """Executes engine commands against dict-backed stores."""

    def __init__(self, stores, db, leaders=()):
        #: server_id -> {key: value}
        self.stores = {sid: dict(store) for sid, store in stores.items()}
        self.db = db
        #: keys with an in-flight leader (WaitForLeader answers True)
        self.leaders = set(leaders)
        self.rounds = []

    def _answer(self, command):
        if isinstance(command, ProbeCacheMulti):
            store = self.stores.get(command.server_id, {})
            return {k: store[k] for k in command.keys if k in store}
        if isinstance(command, WaitForLeader):
            return command.key in self.leaders
        if isinstance(command, ReadDatabase):
            return self.db[command.key]
        if isinstance(command, WriteBackMulti):
            store = self.stores.setdefault(command.server_id, {})
            for key, value in command.items:
                store[key] = value
            return None
        raise AssertionError(f"unexpected command {command!r}")

    def run(self, generator):
        answers = None
        try:
            while True:
                round_ = generator.send(answers)
                self.rounds.append(round_)
                answers = tuple(self._answer(c) for c in round_)
        except StopIteration as stop:
            return stop.value


class TestBatchPlanner:
    def _keys_by_owner(self, count_per_kind=3):
        """Keys partitioned by transition behaviour under 4 -> 3."""
        moved, stayed = [], []
        for i in range(100_000):
            key = f"page:{i}"
            if ROUTER.route(key, 4) != ROUTER.route(key, 3):
                if len(moved) < count_per_kind:
                    moved.append(key)
            elif len(stayed) < count_per_kind:
                stayed.append(key)
            if len(moved) == count_per_kind and len(stayed) == count_per_kind:
                return moved, stayed
        raise AssertionError("key search exhausted")

    def test_all_hits_is_one_probe_round_grouped_by_server(self):
        keys = [f"page:{i}" for i in range(12)]
        stores = {}
        for key in keys:
            stores.setdefault(ROUTER.route(key, 3), {})[key] = f"v-{key}"
        engine = RetrievalEngine(ROUTER)
        driver = StoreDriver(stores, db={})
        outcomes = driver.run(engine.retrieve_many(keys, STEADY))
        assert len(driver.rounds) == 1
        probed = [c.server_id for c in driver.rounds[0]]
        assert all(isinstance(c, ProbeCacheMulti) for c in driver.rounds[0])
        # One multiget per distinct owner, no server probed twice.
        assert len(probed) == len(set(probed))
        assert set(probed) == set(stores)
        assert all(
            outcomes[key].path is FetchPath.HIT_NEW for key in keys
        )
        assert all(outcomes[key].value == f"v-{key}" for key in keys)

    def test_batch_equals_sequential_mid_transition(self):
        # Mixed batch: hits at the new owner, hot keys at the old owner,
        # digest false positives, and plain misses — in one retrieve_many,
        # against the same keys fetched as batches of one.
        moved, stayed = self._keys_by_owner()
        hot, false_positive, cold = moved
        warm, miss, _ = stayed
        stores = {}
        stores.setdefault(ROUTER.route(warm, 3), {})[warm] = "warm"
        stores.setdefault(ROUTER.route(hot, 4), {})[hot] = "hot"
        digests = {}
        digests.setdefault(ROUTER.route(hot, 4), set()).add(hot)
        digests.setdefault(
            ROUTER.route(false_positive, 4), set()
        ).add(false_positive)
        db = {false_positive: "fp-db", cold: "cold-db", miss: "miss-db"}
        keys = [warm, hot, false_positive, cold, miss]
        draining = in_transition(4, 3, digests)

        batch_engine = RetrievalEngine(ROUTER)
        batch_driver = StoreDriver(stores, db)
        batched = batch_driver.run(batch_engine.retrieve_many(keys, draining))

        seq_engine = RetrievalEngine(ROUTER)
        seq_driver = StoreDriver(stores, db)
        sequential = {
            key: seq_driver.run(
                seq_engine.retrieve_many([key], draining)
            )[key]
            for key in keys
        }

        assert set(batched) == set(sequential)
        for key in keys:
            assert batched[key].path is sequential[key].path
            assert batched[key].value == sequential[key].value
            assert batched[key].new_server == sequential[key].new_server
            assert batched[key].old_server == sequential[key].old_server
        assert batch_engine.stats.counts == seq_engine.stats.counts
        assert batched[warm].path is FetchPath.HIT_NEW
        assert batched[hot].path is FetchPath.HIT_OLD
        assert batched[false_positive].path is FetchPath.FALSE_POSITIVE_DB
        assert batched[cold].path is FetchPath.MISS_DB
        # Both drivers leave identical cluster state behind.
        assert batch_driver.stores == seq_driver.stores

    def test_duplicate_keys_collapse_to_one_outcome(self):
        engine = RetrievalEngine(ROUTER)
        driver = StoreDriver({}, db={KEY: "v"})
        outcomes = driver.run(engine.retrieve_many([KEY, KEY, KEY], STEADY))
        assert list(outcomes) == [KEY]
        assert engine.stats.total == 1
        # Exactly one DB read despite three requests for the key.
        reads = [
            c for round_ in driver.rounds for c in round_
            if isinstance(c, ReadDatabase)
        ]
        assert len(reads) == 1

    def test_groups_over_the_multiget_bound_are_chunked(self, monkeypatch):
        monkeypatch.setattr(retrieval, "MAX_MULTIGET_KEYS", 2)
        engine = RetrievalEngine(ROUTER)
        keys = [f"page:{i}" for i in range(100_000)]
        same_owner = [k for k in keys if ROUTER.route(k, 3) == 0][:5]
        driver = StoreDriver(
            {0: {k: "v" for k in same_owner}}, db={}
        )
        driver.run(engine.retrieve_many(same_owner, STEADY))
        probe_round = driver.rounds[0]
        assert [len(c.keys) for c in probe_round] == [2, 2, 1]
        assert all(c.server_id == 0 for c in probe_round)

    def test_empty_batch_yields_nothing(self):
        engine = RetrievalEngine(ROUTER)
        driver = StoreDriver({}, db={})
        assert driver.run(engine.retrieve_many([], STEADY)) == {}
        assert driver.rounds == []
        assert engine.stats.total == 0

    def test_coalesced_batch_reprobes_instead_of_reading_db(self):
        engine = RetrievalEngine(ROUTER, config=COALESCING)
        new_id = ROUTER.route(KEY, 3)

        # The leader's write-back lands while this batch waits: emulate by
        # installing the value at the new owner when WaitForLeader fires.
        class LeaderDriver(StoreDriver):
            def _answer(self, command):
                if isinstance(command, WaitForLeader):
                    self.stores.setdefault(new_id, {})[KEY] = "installed"
                    return True
                return super()._answer(command)

        leader_driver = LeaderDriver({}, db={}, leaders=[KEY])
        outcomes = leader_driver.run(engine.retrieve_many([KEY], STEADY))
        assert outcomes[KEY].path is FetchPath.COALESCED
        assert outcomes[KEY].value == "installed"
        reads = [
            c for round_ in leader_driver.rounds for c in round_
            if isinstance(c, ReadDatabase)
        ]
        assert reads == []

    def test_replicated_batch_equals_sequential(self):
        router = ProteusRouter(4, 2 ** 20, replicas=2)
        epochs = RoutingEpochs(4, None, None)
        keys = [f"page:{i}" for i in range(8)]
        # Prime half the keys at their primary, leave half to the DB.
        stores = {}
        for key in keys[:4]:
            stores.setdefault(router.route(key, 4), {})[key] = f"v-{key}"
        db = {key: f"db-{key}" for key in keys}

        batch_engine = RetrievalEngine(router)
        batch_driver = StoreDriver(stores, db)
        batched = batch_driver.run(batch_engine.retrieve_many(keys, epochs))

        seq_engine = RetrievalEngine(router)
        seq_driver = StoreDriver(stores, db)
        sequential = {
            key: seq_driver.run(seq_engine.retrieve_many([key], epochs))[key]
            for key in keys
        }

        for key in keys:
            assert batched[key] == sequential[key]
        assert batch_engine.stats == seq_engine.stats
        assert batch_engine.stats.database_reads == 4
        assert batch_driver.stores == seq_driver.stores


class TestReplicatedEngine:
    EPOCHS = RoutingEpochs(4, None, None)

    def _engine(self):
        return RetrievalEngine(
            ProteusRouter(4, 2 ** 20, replicas=2)
        )

    @staticmethod
    def _targets(engine):
        (plan,) = engine.router.read_plans([KEY], 4)
        return list(plan)

    def test_primary_hit_no_failover(self):
        engine = self._engine()
        targets = self._targets(engine)
        # One write-through round repopulates the replicas that missed.
        driver = ScriptedDriver(
            [(ProbeCacheMulti, {KEY: "v"})]
            + [(WriteBackMulti, None) for _ in targets[1:]]
        )
        outcome = driver.run_one(engine, KEY, self.EPOCHS)
        assert outcome.served_by == targets[0]
        assert not outcome.failover
        assert outcome.probes == 1
        assert engine.stats.failovers == 0
        assert outcome.path is FetchPath.HIT_NEW and not outcome.degraded
        assert driver.trace[0] == ProbeCacheMulti(targets[0], (KEY,))

    def test_replica_covers_for_missing_primary(self):
        engine = self._engine()
        targets = self._targets(engine)
        assert len(targets) >= 2
        driver = ScriptedDriver(
            [(ProbeCacheMulti, MISS), (ProbeCacheMulti, {KEY: "v"})]
            + [(WriteBackMulti, None)] * (len(targets) - 1)
        )
        outcome = driver.run_one(engine, KEY, self.EPOCHS)
        assert outcome.served_by == targets[1]
        assert outcome.failover
        assert engine.stats.failovers == 1
        assert outcome.probes == 2

    def test_skipped_probe_not_counted(self):
        engine = self._engine()
        targets = self._targets(engine)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, SERVER_UNAVAILABLE), (ProbeCacheMulti, {KEY: "v"})]
            + [(WriteBackMulti, None)] * (len(targets) - 1)
        )
        outcome = driver.run_one(engine, KEY, self.EPOCHS)
        assert outcome.probes == 1
        # The unavailable primary is a fault served around, like any other.
        assert outcome.failover and outcome.degraded
        assert outcome.served_by == targets[1]
        assert engine.stats.degraded["probe_new"] == 1

    def test_all_miss_reads_db_and_repopulates_every_target(self):
        engine = self._engine()
        targets = self._targets(engine)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, MISS)] * len(targets)
            + [(ReadDatabase, "db")]
            + [(WriteBackMulti, None)] * len(targets)
        )
        outcome = driver.run_one(engine, KEY, self.EPOCHS)
        assert outcome.touched_database
        assert outcome.served_by is None
        assert engine.stats.database_reads == 1
        assert outcome.path is FetchPath.MISS_DB and outcome.probes == len(targets)
        written = [
            c for c in driver.trace if isinstance(c, WriteBackMulti)
        ]
        assert sorted(c.server_id for c in written) == sorted(targets)
        assert all(c.items == ((KEY, "db"),) for c in written)


class TestLeaderWindowRegistry:
    def test_open_window_returned_closed_window_none(self):
        reg = LeaderWindowRegistry()
        reg.announce("k", done_at=5.0, now=1.0)
        assert reg.leader_done("k", now=4.0) == 5.0
        assert reg.leader_done("k", now=5.0) is None
        assert reg.leader_done("missing", now=0.0) is None

    def test_prune_uses_current_clock_not_request_start(self, monkeypatch):
        # Regression: the pre-refactor prune compared against the request's
        # *start* time, letting windows that closed mid-request survive an
        # extra pass.  The registry prunes against the clock it is given.
        monkeypatch.setattr(retrieval, "MAX_LEADER_WINDOWS", 2)
        reg = LeaderWindowRegistry()
        reg.announce("a", done_at=1.0, now=0.0)
        reg.announce("b", done_at=2.0, now=0.0)
        # This announce overflows the bound; now=1.5 means "a" (closed at
        # 1.0) must be dropped even though the request started earlier.
        reg.announce("c", done_at=9.0, now=1.5)
        assert len(reg) == 2
        assert reg.leader_done("a", now=0.5) is None
        assert reg.leader_done("b", now=1.6) == 2.0
        assert reg.leader_done("c", now=1.6) == 9.0

    def test_bounded_by_concurrent_misses(self, monkeypatch):
        monkeypatch.setattr(retrieval, "MAX_LEADER_WINDOWS", 8)
        reg = LeaderWindowRegistry()
        for i in range(100):
            # Every window closes almost immediately; the map never grows
            # past the bound + 1 before a prune.
            reg.announce(f"k{i}", done_at=i + 0.1, now=float(i))
        assert len(reg) <= 9
