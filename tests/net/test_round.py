"""The round driver: a multi-server round on the page's own task.

``fetch_many`` used to run every round of two or more commands under
``asyncio.gather`` — a task per command, and siblings that ran on
detached after the page had already failed.  :func:`repro.net.round.\
run_round` steps the commands itself.  What it must keep, pinned here
with hand-made coroutines, scripted pools and a virtual clock — no
sockets, no wall-clock sleeps:

* answers align with the commands whatever order the replies land in,
  and a command that never waits costs no loop handle at all;
* what a coroutine yields reaches the task unchanged — the bare ``yield``
  of ``asyncio.sleep(0)`` included, which must not be spun on;
* a second suspension is the slow path and gets a real task, so two dead
  servers' recoveries overlap;
* a failed or cancelled page leaves nothing running and nothing leased,
  and the error keeps its type;
* database reads — the caller's coroutines — run on the page until one
  waits (:func:`repro.net.round.run_reads`): that read keeps the page's
  task and each later one gets a task of its own, so no two reads that
  wait share a task and an ``asyncio.timeout()`` in one cancels only it.

A leaked coroutine is a ``RuntimeWarning`` at collection time, hence the
module-wide filters and the explicit ``gc.collect()`` calls.
"""

import asyncio
import gc
import heapq
import inspect
import itertools

import pytest

from repro.bloom.config import optimal_config
from repro.core.retrieval import SERVER_UNAVAILABLE, WaitForLeader
from repro.errors import ConfigurationError, TransportError
from repro.net.round import run_reads, run_round
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import ResiliencePolicy, VirtualQueueAdmission
from tests.conftest import LEAKED_COROUTINES_FAIL
from tests.net.scripted import (
    ScriptedClient,
    ScriptedPool,
    fast_retry,
    make,
    trip,
)
from tests.net.test_rpc_glue import CountingLoop

pytestmark = LEAKED_COROUTINES_FAIL

CFG = optimal_config(2000)
SERVERS = 3
KEYS = [f"page:{i}" for i in range(64)]  # address all three servers


def run(coro):
    try:
        return asyncio.run(coro)
    finally:
        gc.collect()  # a leaked coroutine warns here, inside the test


async def spin(turns=5):
    """Let everything runnable run (bare yields: no clock involved)."""
    for _ in range(turns):
        await asyncio.sleep(0)


def start_round(*coros):
    """``run_round`` as a page: a task of its own awaiting the round."""

    async def page():
        return await run_round(list(coros))

    return asyncio.ensure_future(page())


async def database(key):
    return f"db:{key}".encode()


def frontend(transport=None, **kwargs):
    web = AsyncProteusFrontend(
        [("127.0.0.1", port) for port in range(1, SERVERS + 1)],
        CFG, database, **kwargs,
    )
    if transport is not None:
        web.transport = transport
    return web


class FakeTransport:
    """``get_multi`` runs ``script(server_id)`` — an async callable — and
    records which servers' probes started, finished and were cancelled,
    and ``fill`` which servers a read's fills were issued to."""

    def __init__(self, script):
        self.script = script
        self.started, self.finished, self.cancelled = [], [], []
        self.filled = []

    async def get_multi(self, server_id, keys, deadline=None):
        self.started.append(server_id)
        try:
            answer = await self.script(server_id)
        except asyncio.CancelledError:
            self.cancelled.append(server_id)
            raise
        self.finished.append(server_id)
        return answer

    async def set_multi(self, server_id, items, deadline=None):
        return None

    def fill(self, server_id, items, deadline=None, then=None):
        self.filled.append(server_id)
        if then is not None:
            then()
        return None


class TestAnswers:
    def test_answers_align_by_index_whatever_order_replies_land_in(self):
        async def body():
            loop = asyncio.get_running_loop()
            replies = [loop.create_future() for _ in range(4)]

            async def command(index):
                return index, await replies[index]

            for turn, index in enumerate((2, 0, 3, 1)):
                loop.call_soon(replies[index].set_result, f"reply-{turn}")
            answers = await run_round([command(i) for i in range(4)])
            assert answers == [
                (0, "reply-1"), (1, "reply-3"), (2, "reply-0"), (3, "reply-2")
            ]

        run(body())

    def test_a_command_that_never_waits_costs_no_handle(self):
        """A ``WaitForLeader`` nobody leads (twice) and an RPC to a server
        whose circuit is open all finish at their first step."""
        loop = CountingLoop()

        async def body():
            web = frontend()
            transport, pool, _ = make(TransportError("unreached"))
            trip(transport)
            leaders = {}
            loop.count()
            answers = await run_round([
                web._execute(WaitForLeader("b"), leaders),
                transport.get_multi(0, ["a"]),
                web._execute(WaitForLeader("a"), leaders),
            ])
            assert loop.stop_counting() == (0, 0, 0)
            assert loop.iterations == 0
            assert answers == [False, SERVER_UNAVAILABLE, False]
            assert pool.acquires == 0 and list(leaders) == ["b", "a"]

        try:
            loop.run_until_complete(body())
        finally:
            loop.close()

    def test_a_reply_that_is_already_in_costs_no_wake_up(self):
        """Three replies land in one loop turn: the page wakes once."""
        loop = CountingLoop()

        async def body():
            replies = [loop.create_future() for _ in range(3)]

            def deliver():
                for index, reply in enumerate(replies):
                    reply.set_result(index)

            async def command(index):
                return await replies[index]

            loop.call_soon(deliver)
            loop.count()
            assert await run_round([command(i) for i in range(3)]) == [0, 1, 2]
            assert loop.stop_counting() == (1, 0, 0)

        try:
            loop.run_until_complete(body())
        finally:
            loop.close()


class TestWhatACoroutineYieldsIsForwarded:
    def test_a_bare_yield_is_forwarded_not_spun_on(self):
        """Two commands poll, with ``sleep(0)``, for what a loop callback
        sets: the driver must hand their bare yields to the event loop,
        or the callback they wait for never gets to run."""

        async def body():
            ready = []

            async def poll(answer):
                while not ready:
                    await asyncio.sleep(0)
                return answer

            round_ = start_round(poll("a"), poll("b"))
            await spin()
            assert not round_.done()
            asyncio.get_running_loop().call_soon(ready.append, True)
            assert await round_ == ["a", "b"]

        run(body())

    def test_a_failed_wait_reaches_the_command_that_was_waiting(self):
        async def body():
            loop = asyncio.get_running_loop()
            replies = [loop.create_future() for _ in range(2)]

            async def command(index):
                try:
                    return await replies[index]
                except TransportError as error:
                    return f"recovered from {error}"

            loop.call_soon(replies[0].set_exception, TransportError("reset"))
            loop.call_soon(replies[1].set_result, "fine")
            answers = await run_round([command(0), command(1)])
            assert answers == ["recovered from reset", "fine"]

        run(body())


class VirtualClock:
    """Injected time: ``sleep`` parks on a future, :meth:`run` jumps to
    the next due one whenever nothing else is runnable."""

    def __init__(self):
        self.now = 0.0
        self._due = []
        self._order = itertools.count()

    def sleep(self, delay):
        wake = asyncio.get_running_loop().create_future()
        heapq.heappush(self._due, (self.now + delay, next(self._order), wake))
        return wake

    async def run(self, awaitable):
        task = asyncio.ensure_future(awaitable)
        while True:
            await spin()
            if task.done():
                return task.result()
            self.now, _, wake = heapq.heappop(self._due)
            wake.set_result(None)


class TestTheSlowPathGetsATask:
    def test_two_dead_servers_recoveries_overlap(self):
        """Each dead server costs a failed attempt plus two backoffs; the
        page takes as long as the slower recovery, not the sum."""
        clock = VirtualClock()
        recovery = {0: (1.0, 2.0, 4.0), 1: (1.0, 3.0, 6.0), 2: (1.0,)}

        async def script(server_id):
            for delay in recovery[server_id]:
                await clock.sleep(delay)
            return SERVER_UNAVAILABLE if server_id < 2 else {}

        async def body():
            web = frontend(FakeTransport(script))
            results = await clock.run(web.fetch_many(KEYS))
            assert clock.now == 10.0  # not 7 + 10 (+ 1)
            assert {r.path for r in results.values()} == {
                "degraded_db", "miss_db"
            }
            assert sorted(web.transport.finished) == [0, 1, 2]
            # Every key was read from the database: one fill per owner,
            # issued without waiting for anything.
            assert sorted(web.transport.filled) == [0, 1, 2]

        run(body())

    def test_a_promoted_command_still_answers_in_its_own_slot(self):
        async def body():
            replied, recovered = asyncio.Event(), asyncio.Event()

            async def slow(answer):
                await replied.wait()
                await recovered.wait()
                return answer

            async def fast():
                await replied.wait()
                return "fast"

            round_ = start_round(slow("first"), fast(), slow("third"))
            await spin(1)
            replied.set()
            await spin()
            assert not round_.done()
            recovered.set()
            assert await round_ == ["first", "fast", "third"]

        run(body())


class Stuck(ScriptedClient):
    """The wire never answers: every exchange parks on a fresh future."""

    def __init__(self):
        super().__init__(None)
        self.waits = []

    async def _exchange(self, shape, payload):
        self.waits.append(asyncio.get_running_loop().create_future())
        return await self.waits[-1]


def stuck_frontend():
    """A real ``CacheTransport`` over scripted pools whose clients never
    answer."""
    web = frontend(resilience=ResiliencePolicy(retry=fast_retry()))
    web.transport.pools[:] = [ScriptedPool(Stuck()) for _ in range(SERVERS)]
    return web


def assert_nothing_held(web):
    """No lease, and nobody still waiting on the wire."""
    for pool in web.transport.pools:
        assert pool.leases == 0
        assert all(wait.done() for wait in pool.client.waits)


class TestAFailedOrCancelledPageLeavesNothingRunning:
    def test_cancelling_the_page_cancels_every_started_command(self):
        async def body():
            web = stuck_frontend()
            page = asyncio.ensure_future(web.fetch_many(KEYS))
            await spin()
            pools = web.transport.pools
            assert [pool.leases for pool in pools] == [1] * SERVERS
            page.cancel()
            with pytest.raises(asyncio.CancelledError):
                await page
            assert all(pool.client.waits[0].cancelled() for pool in pools)
            assert_nothing_held(web)
            assert web._inflight == {}

        run(body())

    @pytest.mark.parametrize("failing", range(SERVERS))
    def test_a_fatal_error_stops_its_siblings(self, failing):
        """The regression: under ``gather`` the siblings of a failed
        command ran on, detached, after ``fetch_many`` had raised."""
        never = []

        async def script(server_id):
            if server_id == failing:
                raise ConfigurationError(f"server {server_id} misconfigured")
            never.append(asyncio.get_running_loop().create_future())
            return await never[-1]

        async def body():
            web = frontend(FakeTransport(script))
            with pytest.raises(ConfigurationError, match=f"server {failing}"):
                await web.fetch_many(KEYS)
            fake = web.transport
            await spin()
            # The probes go out in server order: those after the failing
            # one never started, those before it were cancelled.
            assert fake.started == list(range(failing + 1))
            assert fake.cancelled == list(range(failing))
            assert fake.finished == []
            assert all(wait.cancelled() for wait in never)

        run(body())

    def test_a_fatal_reply_returns_every_lease(self):
        async def body():
            web = stuck_frontend()
            page = asyncio.ensure_future(web.fetch_many(KEYS))
            await spin()
            clients = [pool.client for pool in web.transport.pools]
            clients[0].waits[0].set_exception(ConfigurationError("bad reply"))
            with pytest.raises(ConfigurationError, match="bad reply"):
                await page
            assert clients[1].waits[0].cancelled()
            assert clients[2].waits[0].cancelled()
            assert_nothing_held(web)

        run(body())

    def test_a_failed_page_cancels_and_awaits_its_promoted_commands(self):
        async def body():
            replied, never = asyncio.Event(), asyncio.Event()
            unwound = []

            async def recovering():
                await replied.wait()
                try:
                    await never.wait()
                finally:
                    unwound.append("recovering")

            async def failing():
                await replied.wait()
                await asyncio.sleep(0)
                raise ConfigurationError("late")

            asyncio.get_running_loop().call_soon(replied.set)
            with pytest.raises(ConfigurationError, match="late"):
                await run_round([failing(), recovering()])
            assert unwound == ["recovering"]

        run(body())

    def test_the_first_error_in_round_order_wins_with_its_type_intact(self):
        class FirstError(Exception):
            pass

        class SecondError(Exception):
            pass

        async def body():
            loop = asyncio.get_running_loop()
            replies = [loop.create_future() for _ in range(2)]

            async def command(index):
                return await replies[index]

            # The later command's reply fails first; the page still sees
            # the earlier command's error.
            loop.call_soon(replies[1].set_exception, SecondError("second"))
            loop.call_soon(replies[0].set_exception, FirstError("first"))
            with pytest.raises(FirstError, match="first"):
                await run_round([command(0), command(1)])

        run(body())


def start_reads(*coros):
    """``run_reads`` as a page: a task of its own awaiting the round."""

    async def page():
        return await run_reads(list(coros))

    return asyncio.ensure_future(page())


class TestRunReads:
    def test_reads_that_answer_at_once_cost_no_task(self):
        loop = CountingLoop()

        async def read(index):
            return f"v{index}"

        async def body():
            loop.count()
            answers = await run_reads([read(i) for i in range(4)])
            assert loop.stop_counting() == (0, 0, 0)
            assert loop.iterations == 0
            assert answers == ["v0", "v1", "v2", "v3"]

        try:
            loop.run_until_complete(body())
        finally:
            loop.close()

    def test_the_first_read_that_waits_keeps_the_page_and_later_reads_get_a_task_each(self):
        ran_on = {}

        async def read(index, waits):
            ran_on[index] = asyncio.current_task()
            if waits:
                await asyncio.sleep(0)
            return index

        async def body():
            page = start_reads(
                read(0, False), read(1, True), read(2, True), read(3, False)
            )
            assert await page == [0, 1, 2, 3]
            assert ran_on[0] is ran_on[1] is page
            assert len({ran_on[1], ran_on[2], ran_on[3]}) == 3

        run(body())

    def test_a_raise_before_any_read_waits_closes_the_unstarted_reads(self):
        started = []

        async def read(index):
            started.append(index)
            if index == 1:
                raise ConfigurationError("bad key")
            return index

        async def body():
            reads = [read(i) for i in range(4)]
            with pytest.raises(ConfigurationError, match="bad key"):
                await run_reads(reads)
            assert started == [0, 1]
            assert all(
                inspect.getcoroutinestate(coro) == inspect.CORO_CLOSED
                for coro in reads
            )

        run(body())

    def test_a_raise_in_the_waiting_read_cancels_and_awaits_the_later_reads(self):
        never, unwound = asyncio.Event(), []

        async def failing():
            await asyncio.sleep(0)
            raise ConfigurationError("database down")

        async def stuck(index):
            try:
                await never.wait()
            finally:  # unwinding takes loop turns: the page must wait
                await spin()
                unwound.append(index)

        async def body():
            with pytest.raises(ConfigurationError, match="database down"):
                await run_reads([failing(), stuck(1), stuck(2)])
            assert unwound == [1, 2]

        run(body())

    def test_a_cancelled_page_cancels_and_awaits_the_later_reads(self):
        never, unwound = asyncio.Event(), []

        async def stuck(index):
            try:
                await never.wait()
            finally:  # unwinding takes loop turns: the page must wait
                await spin()
                unwound.append(index)

        async def body():
            page = start_reads(stuck(0), stuck(1), stuck(2))
            await spin()
            page.cancel()
            with pytest.raises(asyncio.CancelledError):
                await page
            assert unwound == [0, 1, 2]

        run(body())


async def timing_out(key):
    """A read whose client bounds it with ``asyncio.timeout()``: it gives
    up after 10 ms and answers ``b"late"``."""
    try:
        async with asyncio.timeout(0.01):
            await asyncio.sleep(1)
    except TimeoutError:
        return b"late"
    return b"slept"


async def all_miss(server_id):
    return {}


class TestDatabaseReadsKeepATaskEach:
    def test_current_task_in_the_database_callable_runs_only_that_read(self):
        readers = {}

        async def recording_database(key):
            readers[key] = asyncio.current_task()
            await asyncio.sleep(0)
            return b"v"

        async def body():
            web = frontend(FakeTransport(all_miss))
            web.database = recording_database
            keys = KEYS[:4]
            page = asyncio.ensure_future(web.fetch_many(keys))
            results = await page
            assert {r.path for r in results.values()} == {"miss_db"}
            assert len(set(readers.values())) == len(keys)
            # Only the first read that waited ran on the page's task.
            assert [task is page for task in readers.values()] == [
                True, False, False, False
            ]

        run(body())

    def test_a_timeout_in_a_waiting_read_cancels_only_that_read(self):
        """Reads 1 and 2 of four each time out inside their own
        ``asyncio.timeout()``: on one shared task the two timeouts would
        cancel each other's read."""
        keys = KEYS[:4]

        async def database(key):
            if key in keys[1:3]:
                return await timing_out(key)
            return b"v"

        async def body():
            web = frontend(FakeTransport(all_miss))
            web.database = database
            page = asyncio.ensure_future(web.fetch_many(keys))
            results = await page
            assert [results[key].value for key in keys] == [
                b"v", b"late", b"late", b"v"
            ]
            assert page.cancelling() == 0

        run(body())

    def test_a_timeout_in_a_page_of_one_read_cancels_only_that_read(self):
        async def body():
            web = frontend(FakeTransport(all_miss))
            web.database = timing_out
            page = asyncio.ensure_future(web.fetch_many(KEYS[:1]))
            results = await page
            assert results[KEYS[0]].value == b"late"
            assert page.cancelling() == 0

        run(body())

    def test_a_four_miss_page_against_a_database_that_answers_at_once_creates_no_task(self):
        loop = CountingLoop()

        async def body():
            web = frontend(FakeTransport(all_miss))
            loop.count()
            results = await web.fetch_many(KEYS[:4])
            _, _, tasks = loop.stop_counting()
            assert {r.path for r in results.values()} == {"miss_db"}
            assert sorted(r.value for r in results.values()) == sorted(
                f"db:{key}".encode() for key in KEYS[:4]
            )
            assert tasks == 0

        try:
            loop.run_until_complete(body())
        finally:
            loop.close()


class TestEveryAdmittedReadFreesItsSlot:
    """The engine admits each read of a round before the round runs; a
    read that never starts must free its slot too, or a database that
    fails fast sheds every later miss."""

    def admitting_frontend(self, database):
        web = frontend(FakeTransport(all_miss),
                       admission=VirtualQueueAdmission(max_depth=4))
        web.database = database
        return web

    def test_a_raise_before_any_read_waits_frees_the_unstarted_reads_slots(self):
        keys = KEYS[:4]

        async def failing(key):
            raise ConfigurationError("refused")

        async def body():
            web = self.admitting_frontend(failing)
            with pytest.raises(ConfigurationError, match="refused"):
                await web.fetch_many(keys)
            assert web.engine.admission._pending == 0
            web.database = database
            results = await web.fetch_many(keys)
            assert {r.path for r in results.values()} == {"miss_db"}

        run(body())

    def test_a_cancelled_page_frees_every_read_slot(self):
        never = asyncio.Event()

        async def stuck(key):
            await never.wait()

        async def body():
            web = self.admitting_frontend(stuck)
            page = asyncio.ensure_future(web.fetch_many(KEYS[:4]))
            await spin()
            page.cancel()
            with pytest.raises(asyncio.CancelledError):
                await page
            assert web.engine.admission._pending == 0

        run(body())
