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
* database reads — the caller's coroutines — still get a task each.

A leaked coroutine is a ``RuntimeWarning`` at collection time, hence the
module-wide filters and the explicit ``gc.collect()`` calls.
"""

import asyncio
import gc
import heapq
import itertools

import pytest

from repro.bloom.config import optimal_config
from repro.core.retrieval import SERVER_UNAVAILABLE, WaitForLeader
from repro.errors import ConfigurationError, TransportError
from repro.net.pool import ConnectionPool
from repro.net.round import run_round
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import ResiliencePolicy
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
    records which servers' probes started, finished and were cancelled."""

    def __init__(self, script):
        self.script = script
        self.started, self.finished, self.cancelled = [], [], []

    async def get_multi(self, server_id, keys, deadline=None):
        self.started.append(server_id)
        try:
            answer = await self.script(server_id)
        except asyncio.CancelledError:
            self.cancelled.append(server_id)
            raise
        self.finished.append(server_id)
        return answer

    async def set_multi(self, server_id, items, deadline=None, verb="set"):
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
    def test_a_bare_yield_is_forwarded_not_spun_on(self, monkeypatch):
        """Two probes of one server whose only connection is still being
        dialled wait in ``ConnectionPool.acquire``'s ``sleep(0)`` loop: the
        driver must hand those bare yields to the event loop, or the dial
        they wait for never gets to run."""

        class GatedClient(ScriptedClient):
            gate = None

            async def connect(self):
                await self.gate
                return self

        async def body():
            GatedClient.gate = asyncio.get_running_loop().create_future()
            monkeypatch.setattr(
                "repro.net.pool.MemcachedClient",
                lambda *args, **kwargs: GatedClient({}),
            )
            transport, _, _ = make()
            pool = transport.pools[0] = ConnectionPool("127.0.0.1", 1, size=1)
            dial = asyncio.ensure_future(pool.prewarm())
            await spin(1)
            assert pool.live == 0  # the one dial slot is taken
            probes = start_round(
                transport.get_multi(0, ["a"]), transport.get_multi(0, ["b"])
            )
            await spin()
            assert not probes.done()
            GatedClient.gate.set_result(None)
            assert await probes == [{}, {}]
            await dial
            assert pool.dials == 1 and pool.leases == 0

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


class TestDatabaseReadsKeepATaskEach:
    def test_current_task_in_the_database_callable_runs_only_that_read(self):
        readers = {}

        async def recording_database(key):
            readers[key] = asyncio.current_task()
            await asyncio.sleep(0)
            return b"v"

        async def all_miss(server_id):
            return {}

        async def body():
            web = frontend(FakeTransport(all_miss))
            web.database = recording_database
            keys = KEYS[:4]
            page = asyncio.ensure_future(web.fetch_many(keys))
            results = await page
            assert {r.path for r in results.values()} == {"miss_db"}
            assert len(set(readers.values())) == len(keys)
            assert page not in readers.values()

        run(body())
