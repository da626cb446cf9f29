"""Property-based tests: the store/digest pair stays consistent under churn.

This is the invariant the whole smooth-transition design rests on
(Section IV-A): the digest answers membership for exactly the store's
current keys (modulo hash false positives, never false negatives).  And
a multiget is only a faster loop: ``KeyValueStore.get_many`` must leave
what one ``get`` per key leaves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.config import BloomConfig
from repro.bloom.counting import CountingBloomFilter
from repro.cache.server import CacheServer
from repro.cache.store import KeyValueStore

# Small keys; ops reference keys by index so deletes often hit live items.
op = st.tuples(
    st.sampled_from(["set", "get", "delete"]),
    st.integers(min_value=0, max_value=30),
)

CFG = BloomConfig(
    num_counters=8192, counter_bits=8, num_hashes=4, kappa=500,
    fp_bound=0.0, fn_bound=0.0,
)


@given(ops=st.lists(op, max_size=200))
@settings(max_examples=50, deadline=None)
def test_digest_matches_store_contents_under_arbitrary_churn(ops):
    server = CacheServer(0, capacity_bytes=4096 * 12, bloom_config=CFG)
    now = 0.0
    for action, idx in ops:
        key = f"key:{idx}"
        now += 1.0
        if action == "set":
            server.set(key, idx, now=now)
        elif action == "get":
            server.get(key, now=now)
        else:
            server.delete(key, now=now)
    live = set(server.store._items)
    # No false negatives: every live key is in the digest.
    assert all(key in server.digest for key in live)
    # Exact count: digest tracked link/unlink one-for-one.
    assert server.digest.count == len(live)
    # Capacity respected throughout.
    assert server.store.used_bytes <= 4096 * 12


@given(ops=st.lists(op, max_size=150), ttl=st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_digest_consistent_with_ttl_expiry(ops, ttl):
    server = CacheServer(0, bloom_config=CFG)
    now = 0.0
    for action, idx in ops:
        key = f"key:{idx}"
        now += 2.0
        if action == "set":
            server.set(key, idx, now=now, ttl=ttl)
        else:
            server.get(key, now=now)  # may lazily expire
    server.store.purge_expired(now)
    live = set(server.store._items)
    assert server.digest.count == len(live)
    assert all(key in server.digest for key in live)


@given(ops=st.lists(op, max_size=120))
@settings(max_examples=30, deadline=None)
def test_stats_item_count_matches_store(ops):
    # The store's len and used_bytes are the item and byte counts: every
    # resident item weighs the default 4 KB, and each link and unlink is
    # counted once (no TTL here, so nothing expires).
    server = CacheServer(0, capacity_bytes=4096 * 10, bloom_config=CFG)
    now = 0.0
    overwrites = 0
    for action, idx in ops:
        now += 1.0
        key = f"key:{idx}"
        if action == "set":
            overwrites += key in server.store
            server.set(key, idx, now=now)
        elif action == "get":
            server.get(key, now=now)
        else:
            server.delete(key, now=now)
    stats = server.stats
    assert server.store.used_bytes == 4096 * len(server.store)
    assert len(server.store) == (
        stats.sets - overwrites - stats.deletes - stats.evictions
    )


# ------------------------------------------- get_many against a get loop

#: (op, key index / indices, time argument); "set" with a positive lead
#: writes an item created in the future of later reads, and the second
#: "set" row re-times resident keys by overwriting them
store_op = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 5),
              st.sampled_from([None, 1.0, 3.0]), st.sampled_from([0.0, 4.0])),
    st.tuples(st.just("get"), st.lists(st.integers(0, 6), max_size=8),
              st.none(), st.none()),
    st.tuples(st.just("set"), st.integers(0, 5),
              st.sampled_from([None, 0.5, 6.0]), st.just(0.0)),
    st.tuples(st.just("tick"), st.none(), st.sampled_from([0.5, 2.0]),
              st.none()),
)


def digested_store():
    """A 4-item LRU store and the digest it keeps."""
    digest = CountingBloomFilter(1024, counter_bits=8, num_hashes=4)
    return KeyValueStore(4, digest, default_item_size=1), digest


def reference_get(store, key, now):
    """One key's hit rules, spelled out on the public surface: an expired
    item is unlinked (``delete`` does it, as an expiry), a future-dated
    one is invisible, a hit moves to the LRU tail."""
    store.stats.gets += 1
    item = store.peek(key)
    if item is not None and item.expired(now):
        store.delete(key, now)
    elif item is not None and item.created_at <= now:
        store._items.move_to_end(key)
        store.stats.hits += 1
        return item.value
    store.stats.misses += 1
    return None


@given(ops=st.lists(store_op, max_size=60))
@settings(max_examples=200, deadline=None)
def test_get_many_is_the_per_key_get_loop(ops):
    """``get_many(keys, now)``, a ``get`` per key and the spelled-out rules
    return, count, expire and refresh alike — repeated, expired and
    future-dated keys included."""
    twins = [digested_store() for _ in range(3)]
    (batched, _), (looped, _), (reference, _) = twins
    now = 0.0
    for step, (action, keys, arg, lead) in enumerate(ops):
        if action == "set":
            for store, _ in twins:
                store.set(f"k{keys}", step, now=now + lead, ttl=arg)
        elif action == "tick":
            now += arg
        else:
            names = [f"k{index}" for index in keys]
            hits = batched.get_many(names, now)
            assert set(hits) <= set(names)
            assert [
                hits[name].value if name in hits else None for name in names
            ] == [looped.get(name, now) for name in names] == [
                reference_get(reference, name, now) for name in names
            ]
        # the same keys linked and unlinked: the same digest counters
        assert len({bytes(digest._counters) for _, digest in twins}) == 1
        assert all(digest.count == len(store) for store, digest in twins)
    for field in ("gets", "hits", "misses", "expirations", "evictions"):
        assert len({getattr(store.stats, field) for store, _ in twins}) == 1
    # LRU recency: the same victims, in the same order, from here on
    recency = [list(store._items) for store, _ in twins]
    assert recency[0] == recency[1] == recency[2]
