"""Hypothesis stateful test: KeyValueStore vs a reference model.

Drives the bounded store with random interleavings of set/get/delete/
expiry/time advances and checks it against a plain-dict model with the same
TTL semantics.  Eviction makes exact value-equality impossible (the store
may drop keys the model keeps), so the invariants are one-sided plus
accounting identities:

* a store hit always returns the model's value (no stale/corrupt reads);
* the store never exceeds its capacity;
* the accounted bytes match the item sizes;
* the digest the store keeps matches its key set exactly.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bloom.counting import CountingBloomFilter
from repro.cache.store import KeyValueStore

KEYS = [f"key:{i}" for i in range(12)]
CAPACITY = 4096 * 6
ITEM = 4096


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.digest = CountingBloomFilter(8192, counter_bits=8, num_hashes=4)
        self.store = KeyValueStore(CAPACITY, self.digest)
        self.model = {}   # key -> (value, expires_at or None)
        self.now = 0.0

    def _model_alive(self, key):
        entry = self.model.get(key)
        if entry is None:
            return None
        value, expires = entry
        if expires is not None and self.now >= expires:
            return None
        return value

    @rule(key=st.sampled_from(KEYS), value=st.integers(), ttl=st.one_of(
        st.none(), st.floats(min_value=1.0, max_value=20.0)))
    def do_set(self, key, value, ttl):
        self.store.set(key, value, now=self.now, size=ITEM, ttl=ttl)
        self.model[key] = (
            value, None if ttl is None else self.now + ttl
        )

    @rule(key=st.sampled_from(KEYS))
    def do_get(self, key):
        got = self.store.get(key, now=self.now)
        expected = self._model_alive(key)
        if got is not None:
            # No stale reads: a hit must match the model exactly.
            assert expected is not None
            assert got == expected
        # A store miss is legal (eviction) — but then drop the model entry
        # too, because the store just lazily expired or never had it.
        elif key in self.model:
            del self.model[key]

    @rule(key=st.sampled_from(KEYS))
    def do_delete(self, key):
        self.store.delete(key, now=self.now)
        self.model.pop(key, None)

    @rule(delta=st.floats(min_value=0.1, max_value=30.0))
    def advance_time(self, delta):
        self.now += delta

    @invariant()
    def capacity_respected(self):
        assert self.store.used_bytes <= CAPACITY

    @invariant()
    def bytes_match_contents(self):
        assert self.store.used_bytes == sum(
            self.store.peek(key).size for key in self.store._items
        )

    @invariant()
    def digest_matches_store(self):
        live = set(self.store._items)
        assert self.digest.count == len(live)
        for key in live:
            assert key in self.digest

    @invariant()
    def store_is_subset_of_model(self):
        for key in self.store._items:
            item = self.store.peek(key)
            if item.expired(self.now):
                continue  # lazily expired on next touch
            assert self._model_alive(key) is not None


StoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestStoreMachine = StoreMachine.TestCase
