"""Property: :meth:`RetrievalEngine.write_many` plans exactly the write
contract, checked against an owner chain built from per-ring routes.

For any fleet of N <= 8 servers, r in {1, 2} replica rings and any
(n_old, n_new) epoch pair, the one round it yields

* writes each key's value to exactly its new-epoch read plan;
* deletes it exactly at chain ∩ prefix − plan, where the chain is every
  owner the key has on any ring at any active count and the prefix is the
  active-or-draining ``range(max(n_new, n_old))`` — so never outside the
  prefix, and always at a transition's ceded old owners;
* returns each key's plan minus the owners answered ``SERVER_UNAVAILABLE``.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retrieval import (
    SERVER_UNAVAILABLE,
    DeleteMulti,
    RetrievalConfig,
    RetrievalEngine,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs


@lru_cache(maxsize=None)
def router(num_servers, replicas):
    return ProteusRouter(num_servers, ring_size=2 ** 20, replicas=replicas)


@st.composite
def write_cases(draw):
    num_servers = draw(st.integers(1, 8))
    n_new = draw(st.integers(1, num_servers))
    n_old = draw(st.integers(1, num_servers))
    return (
        router(num_servers, draw(st.sampled_from([1, 2]))),
        RoutingEpochs(n_new, None if n_old == n_new else n_old, None),
        draw(st.lists(
            st.text("abkz:0123456789", min_size=1, max_size=6),
            min_size=1, max_size=12,
        )),
        draw(st.sets(st.integers(0, num_servers - 1))),
    )


def chain(ring_router, key):
    """Every owner *key* has on any ring at any active count."""
    return {
        owner
        for count in range(1, ring_router.num_servers + 1)
        for owner in ring_router.replica_servers(key, count)
    }


@settings(max_examples=150, deadline=None)
@given(write_cases())
def test_one_round_writes_the_plan_and_deletes_every_other_copy(case):
    ring_router, epochs, keys, down = case
    items = [(key, index) for index, key in enumerate(keys)]
    steps = RetrievalEngine(ring_router).write_many(items, epochs)
    round_ = next(steps)
    written, deleted = {}, {}
    for command in round_:
        assert isinstance(command, (WriteBackMulti, DeleteMulti))
        if isinstance(command, WriteBackMulti):
            for key, value in command.items:
                assert value == dict(items)[key]  # the last value wins
                written.setdefault(key, set()).add(command.server_id)
        else:
            for key in command.keys:
                deleted.setdefault(key, set()).add(command.server_id)
    prefix = set(range(max(epochs.new, epochs.old or 0)))
    for key in set(keys):
        plan = set(ring_router.read_plans([key], epochs.new)[0])
        deletes = deleted.get(key, set())
        assert written[key] == plan
        assert deletes == (chain(ring_router, key) & prefix) - plan
        assert deletes <= prefix
        if epochs.in_transition:
            old = set(ring_router.read_plans([key], epochs.old)[0])
            assert old - plan <= deletes  # the ceded owners
    # One command per (kind, server): the keys share each round trip.
    assert len({(type(c), c.server_id) for c in round_}) == len(round_)
    answers = tuple(
        SERVER_UNAVAILABLE if command.server_id in down else None
        for command in round_
    )
    try:
        steps.send(answers)
    except StopIteration as stop:
        owners = stop.value
    else:  # pragma: no cover - a second round
        raise AssertionError("write_many yielded a second round")
    assert owners == {
        key: [
            owner for owner in ring_router.read_plans([key], epochs.new)[0]
            if owner not in down
        ]
        for key in keys
    }


def test_write_many_drops_the_hot_key_copy():
    engine = RetrievalEngine(
        router(3, 1), config=RetrievalConfig(hot_key_cache=True)
    )
    engine.armor.cache.store("k", b"old", now=0.0)
    steps = engine.write_many([("k", b"new")], RoutingEpochs(3, None, None))
    round_ = next(steps)
    try:
        steps.send((None,) * len(round_))
    except StopIteration:
        pass
    assert engine.armor.cache.get("k", 0.0) is None
