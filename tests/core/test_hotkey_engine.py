"""Hot-key armor wired through the retrieval engines.

Covers the tentpole contracts: sketch-elected keys served from the
frontend-local cache (``FetchPath.HIT_LOCAL``) with TTL-bounded staleness,
grouped digest checks (one ``digest_hit_many`` per ceding old owner per
batch, bit-identical to per-key consults), and a local hit on the
replicated path.
"""

import pytest

from repro.core.retrieval import (
    FetchPath,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalEngine,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs, Transition
from tests.conftest import in_transition, record_consults, snapshot_of

ROUTER = ProteusRouter(4, ring_size=2 ** 20)
STEADY = RoutingEpochs(new=3, old=None, transition=None)

ARMORED = dict(hot_key_cache=True, hot_key_ttl=1.0)


class DictDriver:
    """Answers engine commands from plain dict state."""

    def __init__(self, stores=None, db=None):
        self.stores = stores or {}
        self.db = db or {}
        self.trace = []

    def one(self, engine, key, epochs, **kwargs):
        """Retrieve *key* as a batch of one; returns its outcome."""
        return self.batch(engine.retrieve_many([key], epochs, **kwargs))[key]

    def batch(self, generator):
        answers = None
        try:
            while True:
                round_ = generator.send(answers)
                self.trace.extend(round_)
                answers = tuple(self._answer(c) for c in round_)
        except StopIteration as stop:
            return stop.value

    def _answer(self, command):
        if isinstance(command, ProbeCacheMulti):
            store = self.stores.get(command.server_id, {})
            return {k: store[k] for k in command.keys if k in store}
        if isinstance(command, WaitForLeader):
            return False
        if isinstance(command, ReadDatabase):
            return self.db[command.key]
        if isinstance(command, WriteBackMulti):
            store = self.stores.setdefault(command.server_id, {})
            for k, value in command.items:
                store[k] = value
            return None
        raise AssertionError(f"unexpected command {command!r}")


def moved_keys(count):
    """Keys whose owner differs between the 4- and 3-server epochs."""
    found = []
    for i in range(50_000):
        key = f"page:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("not enough remapped keys")


class TestScalarArmor:
    """The armor on single-key fetches (batches of one)."""

    def test_second_read_is_served_locally(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "db-value"})
        first = driver.one(engine, "k", STEADY, now=0.0)
        assert first.path is FetchPath.MISS_DB
        trace_len = len(driver.trace)

        second = driver.one(engine, "k", STEADY, now=0.5)
        assert second.path is FetchPath.HIT_LOCAL
        assert second.value == "db-value"
        assert len(driver.trace) == trace_len  # zero commands issued
        assert engine.stats.counts["hit_local"] == 1

    def test_a_cache_hit_is_admitted_locally_too(self):
        # A hit at the key's one owner has nothing to write back, but it
        # still goes through the settle pass: that is where armor admits.
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(stores={ROUTER.route("k", 3): {"k": "cached"}})
        first = driver.one(engine, "k", STEADY, now=0.0)
        assert first.path is FetchPath.HIT_NEW
        trace_len = len(driver.trace)
        second = driver.one(engine, "k", STEADY, now=0.5)
        assert (second.path, second.value) == (FetchPath.HIT_LOCAL, "cached")
        assert len(driver.trace) == trace_len

    def test_ttl_bounds_local_staleness(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "v"})
        driver.one(engine, "k", STEADY, now=0.0)
        # At now=1.0 the entry is exactly ttl old: never served.
        stale = driver.one(engine, "k", STEADY, now=1.0)
        assert stale.path is not FetchPath.HIT_LOCAL

    def test_armor_inert_without_clock(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "v"})
        driver.one(engine, "k", STEADY)
        repeat = driver.one(engine, "k", STEADY)
        assert repeat.path is not FetchPath.HIT_LOCAL

    def test_armor_off_by_default(self):
        engine = RetrievalEngine(ROUTER)
        driver = DictDriver(db={"k": "v"})
        driver.one(engine, "k", STEADY, now=0.0)
        repeat = driver.one(engine, "k", STEADY, now=0.1)
        assert repeat.path is not FetchPath.HIT_LOCAL

    def test_invalidation_forces_authoritative_path(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "v1"})
        driver.one(engine, "k", STEADY, now=0.0)
        engine.armor.invalidate("k")
        driver.db["k"] = "v2"
        fresh = driver.one(engine, "k", STEADY, now=0.1)
        assert fresh.path is not FetchPath.HIT_LOCAL


class TestBatchArmor:
    def test_warm_batch_issues_no_commands(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        keys = ["a", "b", "c"]
        driver = DictDriver(db={k: f"db-{k}" for k in keys})
        driver.batch(engine.retrieve_many(keys, STEADY, now=0.0))
        trace_len = len(driver.trace)

        outcomes = driver.batch(engine.retrieve_many(keys, STEADY, now=0.5))
        assert len(driver.trace) == trace_len
        for key in keys:
            assert outcomes[key].path is FetchPath.HIT_LOCAL
            assert outcomes[key].value == f"db-{key}"

    def test_batch_and_scalar_agree_on_local_hits(self):
        batch_engine = RetrievalEngine(
            ROUTER, config=RetrievalConfig(**ARMORED)
        )
        scalar_engine = RetrievalEngine(
            ROUTER, config=RetrievalConfig(**ARMORED)
        )
        keys = ["a", "b"]
        db = {k: f"db-{k}" for k in keys}
        batch_driver = DictDriver(db=dict(db))
        scalar_driver = DictDriver(db=dict(db))
        batch_driver.batch(batch_engine.retrieve_many(keys, STEADY, now=0.0))
        for key in keys:
            scalar_driver.one(scalar_engine, key, STEADY, now=0.0)
        batched = batch_driver.batch(
            batch_engine.retrieve_many(keys, STEADY, now=0.5)
        )
        for key in keys:
            single = scalar_driver.one(scalar_engine, key, STEADY, now=0.5)
            assert batched[key].path is single.path is FetchPath.HIT_LOCAL
            assert batched[key].value == single.value
        assert batch_engine.stats.counts == scalar_engine.stats.counts


class TestGroupedDigestProbes:
    def test_at_most_one_digest_probe_per_old_owner(self):
        # A scale-up: the moved keys come from several old owners.
        keys = moved_keys(24)
        old_owners = {ROUTER.route(k, 3) for k in keys}
        assert len(old_owners) > 1
        epochs = in_transition(3, 4, {owner: () for owner in old_owners})
        consults = record_consults(epochs)
        engine = RetrievalEngine(ROUTER)
        driver = DictDriver(db={k: f"db-{k}" for k in keys})
        driver.batch(engine.retrieve_many(keys, epochs))

        # Exactly one grouped consult per ceding old owner, never chunked,
        # in ascending owner order.
        assert [server for server, _ in consults] == sorted(old_owners)
        grouped = {server: set(group) for server, group in consults}
        for key in keys:
            assert key in grouped[ROUTER.route(key, 3)]

    def test_digest_multi_bit_identical_to_scalar(self):
        members = [f"member:{i}" for i in range(40)]
        digest = snapshot_of(members, 256)
        probes = members[:10] + [f"absent:{i}" for i in range(30)]
        transition = Transition(
            n_old=4, n_new=3, started_at=0.0, ttl=60.0, digests={2: digest}
        )
        scalar = [transition.digest_hit(2, key) for key in probes]
        assert transition.digest_hit_many(2, probes) == scalar
        # No digest broadcast for a server: all-False, same as the scalar.
        assert transition.digest_hit_many(0, probes) == [False] * len(probes)
        assert not transition.digest_hit(0, probes[0])


class TestReplicatedArmor:
    @staticmethod
    def _router():
        return ProteusRouter(4, 2 ** 20, replicas=2)

    @staticmethod
    def _replicated_key(router):
        """A key with two distinct replica owners, and its read plan."""
        for i in range(10_000):
            key = f"page:{i}"
            (plan,) = router.read_plans([key], 4)
            if len(plan) >= 2:
                return key, plan
        raise AssertionError("no key with two distinct replica owners")

    def test_replicated_local_hit_skips_all_probes(self):
        router = self._router()
        key, _ = self._replicated_key(router)
        config = RetrievalConfig(hot_key_cache=True, hot_key_ttl=1.0)
        engine = RetrievalEngine(router, config=config)
        engine.armor.sketch.record(key)
        engine.armor.admit(key, "local-copy", now=0.0)

        steps = engine.retrieve_many([key], STEADY_REPLICATED, now=0.5)
        with pytest.raises(StopIteration) as stop:  # zero commands
            steps.send(None)
        outcome = stop.value.value[key]
        assert outcome.path is FetchPath.HIT_LOCAL
        assert outcome.value == "local-copy"
        assert outcome.served_by is None
        assert outcome.probes == 0


STEADY_REPLICATED = RoutingEpochs(new=4, old=None, transition=None)
