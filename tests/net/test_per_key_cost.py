"""What one key of a multiget costs each layer, in interpreted frames.

A 64-key page crosses five per-key loops — routing (a warm key is one
probe of the compiled table's owner dict, no hash), the engine's probe
loop, key validation, the server's ``get`` loop and the client's reply
framing — and in each of them a Python-level call per key is most of the
cost.  This gate counts them the machine-independent way: ``call``
events under ``sys.setprofile`` (a call into C is a ``c_call`` and does
not count; resuming a generator does).  The server's ``get`` loop enters
no frame at all, so there the gate also counts its ``c_call`` events.
Only the engine still enters a frame per key, its ``FetchResult``, so
there the gate also counts the lines a hit executes (``line`` events
under ``sys.settrace``).  The bounds are what the code does today; a
bound that fails names the layer that grew per-key work.
"""

import asyncio
import collections
import gc
import sys

import pytest

from repro.bloom import hashing
from repro.bloom.config import optimal_config
from repro.core import retrieval
from repro.core.retrieval import ProbeCacheMulti, RetrievalEngine
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs
from repro.net.client import MemcachedClient
from repro.net.parser import ReplyParser, CountReply, ValuesReply
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from tests.net.test_server_connection import connect

KEYS = [f"page:{i:04d}" for i in range(64)]


def python_calls(function, *args):
    """``(calls, result)``: Python frames entered while *function* ran,
    its own included."""
    events, result = profile_events(function, *args)
    return events["call"], result


def profile_events(function, *args):
    """``(events, result)``: ``sys.setprofile`` events by kind while
    *function* ran — ``"call"`` counts Python frames entered, its own
    included, ``"c_call"`` calls into C."""
    events = collections.Counter()

    def profile(frame, event, arg):
        events[event] += 1

    # A collection inside the window would run whatever finalizers earlier
    # tests left behind as frames of ours.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return events, result


async def awaited_calls(awaitable):
    """``(calls, result)``: Python frames entered while this task awaited
    *awaitable* — the event loop's and every server's on it included."""
    events = collections.Counter()

    def profile(frame, event, arg):
        events[event] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = await awaitable
    finally:
        sys.setprofile(None)
        gc.enable()
    return events["call"], result


def engine_lines(function, *args):
    """``(lines, result)``: line events in ``core/retrieval.py`` while
    *function* ran."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename == retrieval.__file__ else None

    gc.collect()
    gc.disable()
    sys.settrace(scope)
    try:
        result = function(*args)
    finally:
        sys.settrace(None)
        gc.enable()
    return lines, result


def test_a_warm_page_routes_without_hashing_or_a_frame_per_key():
    # A key the epoch's table has routed before is one dict hit: no salted
    # hash (not even a memo hit), no numpy, no frame of its own.
    router = ProteusRouter(3)
    plans = router.read_plans(KEYS, 3)  # warm the table's owner dict

    def hashed():
        info = hashing._hash64_memo.cache_info()
        return info.hits + info.misses

    before = hashed()
    counts = {}
    for count in (21, 64):
        counts[count], again = python_calls(router.read_plans, KEYS[:count], 3)
        assert again == plans[:count]
    assert hashed() == before
    assert counts[64] == counts[21]


def test_reply_framing_enters_no_frame_per_block():
    # feed, _step_values and the END line: a block is one header match,
    # one slice and one store into the reply's dict.
    def framed(blocks):
        parser = ReplyParser()
        parser.expect(ValuesReply())
        wire = b"".join(
            b"VALUE %s 0 5\r\nvalue\r\n" % key.encode() for key in KEYS[:blocks]
        ) + b"END\r\n"
        calls, [values] = python_calls(parser.feed, wire)
        assert list(values) == KEYS[:blocks]
        return calls

    assert framed(21) <= 4
    assert framed(64) == framed(21)


#: calls into C one more key of a plain ``get`` costs the server: the
#: store's ``items.get`` and ``move_to_end``, the loop's ``hits.get`` and
#: the ``append`` of the reply block ``_set`` built (7 when each hit was
#: formatted: ``encode``, ``len`` and the cas lookup)
GET_C_CALLS_PER_KEY = 4


def test_the_servers_get_loop_enters_no_frame_per_key():
    # One store.get_many call for the request and one append per hit: the
    # item holds its reply block, so a hit formats nothing.
    async def main():
        server = MemcachedServer(bloom_config=optimal_config(500))
        await server.start()
        try:
            connection, transport = connect(server)
            for key in KEYS:
                connection.data_received(b"set %s 0 0 1\r\nv\r\n" % key.encode())
            transport.writes.clear()
            counts = {}
            # Both lines are longer than one key may be, so both pay the
            # parse's one length check (validate_keys).
            for keys in (32, 64):
                line = ("get " + " ".join(KEYS[:keys]) + "\r\n").encode()
                counts[keys], _ = profile_events(connection.data_received, line)
                assert transport.writes.pop() == b"".join(
                    b"VALUE %s 0 1\r\nv\r\n" % key.encode()
                    for key in KEYS[:keys]
                ) + b"END\r\n"
        finally:
            await server.stop()
        return counts

    counts = asyncio.run(main())
    assert counts[32]["call"] <= 16
    assert counts[64]["call"] == counts[32]["call"]
    assert (
        counts[64]["c_call"] - counts[32]["c_call"]
        <= GET_C_CALLS_PER_KEY * (64 - 32)
    ), counts


#: Python frames one more pipelined ``set`` enters on the server, from
#: its bytes to its ``STORED``: framing and parsing the line, building
#: the ``Request``, the item's reply block and the ``CacheItem``, the
#: store and the digest (28 before the write path was inlined, 13 with
#: a link hook) ...
SET_FRAMES_WITH_ROOM = 12
#: ... and when it also evicts the LRU item and unlinks it from the
#: digest (39 before, 21 with an eviction policy and unlink hooks)
SET_FRAMES_EVICTING = 17


def _sets(start, count):
    return b"".join(
        b"set key:%d 0 0 5\r\nvalue\r\n" % i
        for i in range(start, start + count)
    )


@pytest.mark.parametrize("capacity, bound", [
    (None, SET_FRAMES_WITH_ROOM),
    (100 * len(b"value"), SET_FRAMES_EVICTING),
], ids=["with_room", "evicting"])  # a ratchet keeps the test ids
def test_a_pipelined_set_enters_a_bounded_number_of_frames(capacity, bound):
    async def main():
        server = MemcachedServer(
            capacity_bytes=capacity, bloom_config=optimal_config(500)
        )
        await server.start()
        try:
            connection, transport = connect(server)
            connection.data_received(_sets(0, 200))  # full, if it can be
            transport.writes.clear()
            counts = {}
            for count in (10, 20):
                counts[count], _ = python_calls(
                    connection.data_received, _sets(1000 * count, count)
                )
                assert transport.writes.pop() == b"STORED\r\n" * count
            assert server.digest.count == len(server.store)
            return counts, server.store.stats.evictions
        finally:
            await server.stop()

    counts, evictions = asyncio.run(main())
    assert evictions == (0 if capacity is None else 100 + 10 + 20)
    assert counts[20] - counts[10] <= 10 * bound


def test_store_reply_framing_enters_no_frame_per_reply():
    # A set_multi burst is one CountReply: its STORED / NOT_STORED lines
    # are matched in place, a line costs no frame.
    def framed(pairs):
        parser = ReplyParser()
        parser.expect(CountReply(2 * pairs))
        wire = b"STORED\r\nNOT_STORED\r\n" * pairs
        calls, [stored] = python_calls(parser.feed, wire)
        assert stored == pairs
        return calls

    assert framed(32) == framed(4) <= 2


def test_the_clients_multiget_costs_the_same_frames_for_any_key_count():
    # Validation, encoding and issue are C-level passes over the batch:
    # up to the await of its reply a 64-key get_multi enters exactly the
    # frames a 2-key one does.
    async def until_first_await(client, keys):
        call = client.get_multi(keys)
        calls, reply = python_calls(call.send, None)
        while not reply.done():  # the reply future; then let the call finish
            await asyncio.sleep(0)
        try:
            call.send(None)
        except StopIteration as done:
            assert done.value == {}
        return calls

    async def main():
        server = MemcachedServer(bloom_config=optimal_config(500))
        port = await server.start()
        try:
            async with MemcachedClient("127.0.0.1", port) as client:
                return [
                    await until_first_await(client, KEYS[:count])
                    for count in (2, 64)
                ]
        finally:
            await server.stop()

    few, many = asyncio.run(main())
    assert few == many


#: Python frames of ``retrieve_many`` over 64 keys that all hit at their
#: owners, driven by hand (one per key: its ``FetchResult``)
RETRIEVE_64_HITS_AT_PARENT = 92
#: lines of ``core/retrieval.py`` a hit key executes: grouping into its
#: server's multiget, the probe, and landing as its ``FetchResult`` — a
#: hit at a one-owner plan never reaches the settle pass
RETRIEVE_LINES_PER_HIT = 12


def test_an_all_hit_batch_enters_no_more_frames_than_it_did():
    engine = RetrievalEngine(ProteusRouter(3))
    epochs = RoutingEpochs(new=3, old=None, transition=None)

    def fetch(keys):
        steps = engine.retrieve_many(keys, epochs, now=0.0)
        answers = None
        try:
            while True:
                round_ = steps.send(answers)
                assert all(type(c) is ProbeCacheMulti for c in round_)
                answers = tuple(dict.fromkeys(c.keys, b"v") for c in round_)
        except StopIteration as done:
            return done.value

    fetch(KEYS)  # warm the hash memo and the compiled routing table
    half, _ = python_calls(fetch, KEYS[:32])
    calls, results = python_calls(fetch, KEYS)
    assert [r.path for r in results.values()] == ["hit_new"] * 64
    assert calls <= RETRIEVE_64_HITS_AT_PARENT
    assert calls - half == 32  # what is left per key: its FetchResult
    half, _ = engine_lines(fetch, KEYS[:32])
    lines, again = engine_lines(fetch, KEYS)
    assert again == results
    assert lines - half <= RETRIEVE_LINES_PER_HIT * 32


#: Python frames of one warm 1-key ``fetch_many`` over three in-process
#: servers on its own loop, the loop's and the servers' frames included
#: (117 while ``_execute``, the pool's ``acquire``, ``_ensure_ready`` and
#: ``_await_reply`` were coroutines of their own and every page built a
#: ``RoutingEpochs`` and a ``Deadline``)
PAGE1_FRAMES = 98


def test_a_warm_one_key_page_enters_a_pinned_number_of_frames():
    bloom = optimal_config(1000)

    async def database(key):
        return b"db:" + key.encode()

    async def main():
        servers = [MemcachedServer(bloom_config=bloom) for _ in range(3)]
        endpoints = [("127.0.0.1", await s.start()) for s in servers]
        web = AsyncProteusFrontend(endpoints, bloom, database, pool_size=1)
        try:
            async with web:
                for _ in range(2):  # fill, then the first hit
                    await web.fetch_many(KEYS[:12])
                counts = set()
                for key in KEYS[:12]:  # every server, every key
                    calls, results = await awaited_calls(
                        web.fetch_many([key])
                    )
                    assert results[key].path == "hit_new"
                    counts.add(calls)
                return counts
        finally:
            for server in servers:
                await server.stop()

    assert asyncio.run(main()) == {PAGE1_FRAMES}


#: Python frames of one warm 1-key *miss* ``fetch_many`` with coalescing
#: off — its probe, its database read and its fill, which is issued
#: ``noreply`` and not awaited (207 while the page awaited the fill's
#: ``STORED`` through ``set_multi``)
PAGE1_MISS_FRAMES = 137


def test_a_warm_one_key_miss_page_issues_its_fill_and_returns():
    bloom = optimal_config(1000)

    async def database(key):
        return b"db:" + key.encode()

    async def main():
        servers = [MemcachedServer(bloom_config=bloom) for _ in range(3)]
        endpoints = [("127.0.0.1", await s.start()) for s in servers]
        web = AsyncProteusFrontend(endpoints, bloom, database, pool_size=1)
        writes = []
        try:
            async with web:
                keys = KEYS[:12]
                await web.fetch_many(keys)  # route every key once
                for server_id in range(3):
                    await web.transport.flush(server_id)  # all miss again
                for server in servers:
                    for connection in server._open:
                        write = connection.transport.write
                        connection.transport.write = (
                            lambda data, write=write: (
                                writes.append(bytes(data)), write(data)
                            )
                        )
                counts = set()
                for key in keys:  # every server, every key
                    writes.clear()
                    calls, results = await awaited_calls(
                        web.fetch_many([key])
                    )
                    assert results[key].path == "miss_db"
                    # The page owes no reply when it returns ...
                    assert [
                        client.inflight for pool in web.transport.pools
                        for client in pool._conns
                    ] == [0, 0, 0]
                    owner = servers[web.router.route(key, 3)]
                    for _ in range(100):
                        if key in owner.store:
                            break
                        await asyncio.sleep(0)
                    # ... and the fill landed without a byte written back:
                    # the probe's END is all the server sent.
                    assert key in owner.store
                    assert writes == [b"END\r\n"]
                    counts.add(calls)
                return counts
        finally:
            for server in servers:
                await server.stop()

    assert asyncio.run(main()) == {PAGE1_MISS_FRAMES}
