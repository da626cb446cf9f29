"""ConnectionPool: lazy dial, shared leases, broken-connection ejection.

``acquire`` never awaits: it hands out a connection, and a connection
nobody has dialled yet dials itself on its first exchange."""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ConfigurationError
from repro.net.pool import ConnectionPool
from repro.net.server import MemcachedServer

BLOOM = optimal_config(500)


def run(coro):
    return asyncio.run(coro)


async def with_pool(test_body, **pool_kwargs):
    server = MemcachedServer(bloom_config=BLOOM)
    await server.start()
    pool = ConnectionPool("127.0.0.1", server.port, **pool_kwargs)
    try:
        await test_body(server, pool)
    finally:
        await pool.close()
        await server.stop()


class TestLifecycle:
    def test_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConnectionPool("127.0.0.1", 1, size=0)

    def test_lazy_dial(self):
        async def body(server, pool):
            assert len(pool._conns) == 0
            assert pool.dials == 0
            client = pool.acquire()
            assert client._protocol is None  # it dials on its first exchange
            assert await client.set("k", b"v")
            pool.release(client)
            assert len(pool._conns) == 1
            assert pool.dials == 1

        run(with_pool(body))

    def test_prewarm_dials_once(self):
        async def body(server, pool):
            first = await pool.prewarm()
            again = await pool.prewarm()
            assert first is again
            assert pool.dials == 1

        run(with_pool(body))

    def test_prewarm_failure_propagates_but_pool_survives(self):
        async def body():
            pool = ConnectionPool("127.0.0.1", 1)
            with pytest.raises(OSError):
                await pool.prewarm()
            # The undialled connection keeps its slot and dials again on
            # its next exchange.
            client = pool.acquire()
            assert len(pool._conns) == pool.dials == 1
            assert client._protocol is None
            with pytest.raises(OSError):
                await client.get("k")
            pool.release(client)
            await pool.close()

        run(body())

    def test_closed_pool_refuses_acquire(self):
        async def body(server, pool):
            await pool.close()
            with pytest.raises(ConfigurationError):
                pool.acquire()

        run(with_pool(body))


class TestLeases:
    def test_idle_connection_is_reused(self):
        async def body(server, pool):
            client = pool.acquire()
            await client.set("k", b"v")
            pool.release(client)
            again = pool.acquire()
            assert client is again
            pool.release(again)
            assert pool.dials == 1

        run(with_pool(body))

    def test_concurrent_leases_dial_up_to_size(self):
        async def body(server, pool):
            clients = [pool.acquire() for _ in range(5)]
            # 2 sockets for 5 leases: the bound holds, leases share.
            assert len(pool._conns) == 2
            assert pool.leases == 5
            assert len({id(c) for c in clients}) == 2
            for client in clients:
                pool.release(client)
            assert pool.leases == 0

        run(with_pool(body, size=2))

    def test_least_loaded_connection_is_chosen(self):
        async def body(server, pool):
            a = pool.acquire()
            b = pool.acquire()
            assert a is not b
            pool.release(b)
            # a holds a lease, b is idle: next acquire must pick b.
            assert pool.acquire() is b
            pool.release(a)
            pool.release(b)

        run(with_pool(body, size=2))

    def test_concurrent_traffic_spreads_across_sockets(self):
        async def body(server, pool):
            async def worker(i):
                client = pool.acquire()
                try:
                    await client.set(f"k{i}", b"v")
                    return await client.get(f"k{i}")
                finally:
                    pool.release(client)

            results = await asyncio.gather(*(worker(i) for i in range(20)))
            assert results == [b"v"] * 20
            assert 1 <= len(pool._conns) <= 3

        run(with_pool(body, size=3))


class TestEjection:
    def test_broken_connection_ejected_on_release(self):
        async def body(server, pool):
            client = pool.acquire()
            await client.set("k", b"v")
            client._poison()
            pool.release(client)
            assert len(pool._conns) == 0
            assert pool.ejections == 1
            # next acquire dials a replacement; data is still there
            fresh = pool.acquire()
            assert fresh is not client
            assert await fresh.get("k") == b"v"
            pool.release(fresh)
            assert pool.dials == 2

        run(with_pool(body))

    def test_idle_broken_connection_swept_on_acquire(self):
        async def body(server, pool):
            client = pool.acquire()
            pool.release(client)
            client._poison()  # breaks while idle in the pool
            fresh = pool.acquire()
            assert fresh is not client
            assert pool.ejections == 1
            pool.release(fresh)

        run(with_pool(body))

    def test_ejection_counts_as_reconnect(self):
        async def body(server, pool):
            client = pool.acquire()
            client._poison()
            pool.release(client)
            assert pool.reconnects == 1  # churn visible to health monitors

        run(with_pool(body))

    def test_reconnects_survive_close(self):
        async def body(server, pool):
            client = pool.acquire()
            await client.set("k", b"v")
            client._poison()
            assert await client.get("k") == b"v"  # client-level redial
            pool.release(client)
            before = pool.reconnects
            assert before >= 1
            await pool.close()
            assert pool.reconnects == before  # monotonic across retirement

        run(with_pool(body))


class TestCloseRaces:
    def test_release_after_close_is_a_noop(self):
        async def body(server, pool):
            client = pool.acquire()
            # close() races the outstanding lease: it retires everything
            # and the straggler release must not resurrect the connection.
            await pool.close()
            pool.release(client)
            assert len(pool._conns) == 0
            assert pool.leases == 0

        run(with_pool(body))

    def test_double_release_never_goes_negative(self):
        async def body(server, pool):
            client = pool.acquire()
            pool.release(client)
            pool.release(client)  # buggy caller: clamp, don't corrupt
            assert pool.leases == 0
            # the pool is still fully usable afterwards
            again = pool.acquire()
            assert await again.set("k", b"v")
            pool.release(again)

        run(with_pool(body))

    def test_released_broken_connection_not_double_ejected(self):
        async def body(server, pool):
            client = pool.acquire()
            client._poison()
            pool.release(client)
            assert pool.ejections == 1
            pool.release(client)  # already ejected: key is gone
            assert pool.ejections == 1
            assert len(pool._conns) == 0

        run(with_pool(body))


class TestContention:
    def test_waited_and_leases_peak_track_sharing(self):
        async def body(server, pool):
            first = pool.acquire()
            assert pool.waited == 0
            second = pool.acquire()  # size=1: must share
            assert first is second
            assert pool.waited == 1
            assert pool.leases_peak == 2
            pool.release(first)
            pool.release(second)
            # the high-water mark survives the leases draining
            assert pool.leases == 0
            assert pool.leases_peak == 2

        run(with_pool(body, size=1))


@pytest.mark.parametrize("size", [1, 4])
class TestAcquireAtAnySize:
    """The single-pass acquire keeps every counter and every eviction
    rule at the bound it is benchmarked at (1) and at the default (4)."""

    def test_waited_and_leases_peak(self, size):
        async def body(server, pool):
            held = [pool.acquire() for _ in range(size)]
            assert len({id(c) for c in held}) == size  # one dial each
            assert (pool.waited, pool.leases_peak) == (0, size)
            shared = pool.acquire()  # at the bound: share
            assert shared is held[0]  # least loaded, first among equals
            assert (pool.waited, pool.leases_peak) == (1, size + 1)
            for client in held + [shared]:
                pool.release(client)
            assert (pool.leases, pool.leases_peak) == (0, size + 1)
            # Idle again: the first healthy connection, no sharing.
            assert pool.acquire() is held[0]
            assert pool.waited == 1
            pool.release(held[0])

        run(with_pool(body, size=size))

    def test_idle_broken_connections_are_swept(self, size):
        async def body(server, pool):
            held = [pool.acquire() for _ in range(size)]
            for client in held:
                pool.release(client)
            broken = held[: max(1, size - 1)]  # all but the last, if any
            for client in broken:
                client._poison()
            chosen = pool.acquire()
            assert chosen not in broken and not chosen.broken
            assert pool.ejections == len(broken)
            assert len(pool._conns) == 1
            # Only size 1 had nothing healthy left to hand out.
            assert pool.dials == size + (size == 1)
            pool.release(chosen)

        run(with_pool(body, size=size))

    def test_broken_connection_leaves_with_its_last_lease(self, size):
        async def body(server, pool):
            held = [pool.acquire() for _ in range(size + 1)]
            twice = held[0]
            assert held[-1] is twice  # the shared lease landed on it
            twice._poison()
            pool.release(twice)
            # still leased
            assert (len(pool._conns), pool.ejections) == (size, 0)
            pool.release(twice)
            assert (len(pool._conns), pool.ejections) == (size - 1, 1)
            for client in held[1:-1]:
                pool.release(client)
            assert pool.leases == 0

        run(with_pool(body, size=size))

    def test_dials_in_flight_hold_their_size_slot(self, size):
        async def body(server, pool):
            held = [pool.acquire() for _ in range(3 * size)]
            # The first `size` acquires add a connection; the rest share
            # them, and the sharers of one connection share its one dial.
            assert (pool.dials, len(pool._conns)) == (size, size)
            assert (pool.leases, pool.waited) == (3 * size, 2 * size)
            assert pool.leases_peak == 3 * size
            await asyncio.gather(*(client.set("k", b"v") for client in held))
            assert server.connections == size
            assert sum(c.reconnects for c in held) == 0
            for client in held:
                pool.release(client)

        run(with_pool(body, size=size))

    def test_failed_dials_keep_their_slot_and_redial(self, size):
        async def body():
            pool = ConnectionPool("127.0.0.1", 1, size=size)

            async def lease_and_get():
                client = pool.acquire()
                try:
                    return await client.get("k")
                finally:
                    pool.release(client)

            for _ in range(2):  # each round of exchanges dials afresh
                outcomes = await asyncio.gather(
                    *(lease_and_get() for _ in range(3 * size)),
                    return_exceptions=True,
                )
                assert all(isinstance(o, OSError) for o in outcomes)
                assert pool.dials == len(pool._conns) == size
                assert pool.leases == 0
            await pool.close()

        run(body())
