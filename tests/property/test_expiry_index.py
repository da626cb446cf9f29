"""Differential suite: the expiry-indexed store vs a brute-force oracle.

``KeyValueStore`` finds due items through a lazily-validated heap; the
oracle below finds them the obvious way — by looking at every resident
item.  Random interleavings of every operation that can create, re-time
or strand a heap entry (same-instant duplicates, overwrites that re-time
a key either way, deletes, flushes, capacity evictions) run against both at a
non-decreasing clock, and after every step the two must agree on what is
resident, what it weighs, what the counters say, what the digest the
store keeps holds, and what each ``purge_expired`` returned.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.counting import CountingBloomFilter
from repro.cache.store import KeyValueStore

ITEM = 100
SLOTS = 6
KEYS = [f"key:{i}" for i in range(10)]


class ScanningOracle:
    """The store's contract with a full scan where the index would be."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = OrderedDict()   # key -> expires_at | None, in LRU order
        self.expirations = 0
        self.evictions = 0

    def _expired(self, key, now):
        expires_at = self.items[key]
        return expires_at is not None and now >= expires_at

    def purge_expired(self, now):
        due = [key for key in self.items if self._expired(key, now)]
        for key in due:
            del self.items[key]
        self.expirations += len(due)
        return len(due)

    def set(self, key, now, ttl):
        self.items.pop(key, None)
        if (len(self.items) + 1) * ITEM > self.capacity:
            self.purge_expired(now)
        while (len(self.items) + 1) * ITEM > self.capacity:
            self.items.popitem(last=False)
            self.evictions += 1
        self.items[key] = None if ttl is None else now + ttl

    def get(self, key, now):
        if key not in self.items:
            return False
        if self._expired(key, now):
            del self.items[key]
            self.expirations += 1
            return False
        self.items.move_to_end(key)
        return True

    def delete(self, key, now):
        if key not in self.items:
            return False
        expired = self._expired(key, now)
        del self.items[key]
        self.expirations += expired
        return not expired

    def flush(self):
        dropped = len(self.items)
        self.items.clear()
        return dropped


class Pair:
    """The real store and the oracle, driven in lock step."""

    def __init__(self, capacity=SLOTS * ITEM):
        self.digest = CountingBloomFilter(4096, counter_bits=8, num_hashes=4)
        self.store = KeyValueStore(capacity, self.digest)
        self.oracle = ScanningOracle(capacity)
        self.now = 0.0

    def apply(self, op):
        name, key, amount = op
        store, oracle, now = self.store, self.oracle, self.now
        if name == "advance":
            self.now += amount   # may be 0: same-instant ops stay possible
        elif name == "set":
            store.set(key, key, now=now, size=ITEM, ttl=amount)
            oracle.set(key, now, amount)
        elif name == "get":
            assert (store.get(key, now=now) is not None) == oracle.get(key, now)
        elif name == "delete":
            assert store.delete(key, now=now) == oracle.delete(key, now)
        elif name == "flush":
            assert store.flush() == oracle.flush()
        else:
            assert store.purge_expired(now) == oracle.purge_expired(now)
        self.check()

    def check(self):
        store, oracle = self.store, self.oracle
        assert list(store._items) == list(oracle.items)  # LRU order too
        for key, expires_at in oracle.items.items():
            assert store.peek(key).expires_at == expires_at
        assert store.used_bytes == len(oracle.items) * ITEM
        assert store.stats.expirations == oracle.expirations
        assert store.stats.evictions == oracle.evictions
        assert self.digest.count == len(oracle.items)
        assert all(key in self.digest for key in oracle.items)
        assert len(store._expiry) <= 2 * len(store) + 64


# Few distinct TTLs and clock steps, so equal deadlines (duplicate heap
# entries) are common; "set" is listed three times to keep the store full
# and to re-time resident keys often.
ttl = st.one_of(st.none(), st.sampled_from([1.0, 2.0, 5.0, 20.0]))
key = st.sampled_from(KEYS)
op = st.one_of(
    st.tuples(st.just("set"), key, ttl),
    st.tuples(st.just("set"), key, ttl),
    st.tuples(st.just("set"), key, ttl),
    st.tuples(st.just("get"), key, st.none()),
    st.tuples(st.just("delete"), key, st.none()),
    st.tuples(st.just("purge"), st.none(), st.none()),
    st.tuples(st.just("flush"), st.none(), st.none()),
    st.tuples(
        st.just("advance"), st.none(),
        st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0]),
    ),
)


@given(ops=st.lists(op, max_size=300))
@settings(max_examples=150, deadline=None)
def test_indexed_store_matches_scanning_oracle(ops):
    pair = Pair()
    for step in ops:
        pair.apply(step)
    # Whatever is still resident and timed comes due eventually.
    pair.now += 100.0
    pair.apply(("purge", None, None))
    assert all(item.expires_at is None for item in map(
        pair.store.peek, pair.store._items
    ))


@given(ops=st.lists(op, max_size=200))
@settings(max_examples=50, deadline=None)
def test_unbounded_store_matches_scanning_oracle(ops):
    # No capacity: nothing but get/delete/purge ever reclaims, so entries
    # sit in the index for as long as their deadline says.
    pair = Pair(capacity=10_000 * ITEM)
    for step in ops:
        pair.apply(step)


def test_retiming_one_key_forever_keeps_the_index_bounded():
    pair = Pair()
    pair.apply(("set", "key:0", 5.0))
    for _ in range(1_000):
        pair.apply(("set", "key:0", 50.0))
        pair.apply(("advance", None, 1.0))
    assert len(pair.store._expiry) <= 2 * 1 + 64
    pair.apply(("advance", None, 50.0))
    assert pair.store.purge_expired(pair.now) == 1
    assert pair.store._expiry == []


def test_unlinks_without_a_push_still_compact():
    pair = Pair(capacity=500 * ITEM)
    for i in range(400):
        pair.apply(("set", f"bulk:{i}", 1_000.0))
    for i in range(400):
        pair.apply(("delete", f"bulk:{i}", None))
    assert len(pair.store) == 0
    assert len(pair.store._expiry) <= 64
