"""A seeded, virtual-time network for the live tier's fault tests.

The live tier reaches the network only through ``loop.create_connection``,
``loop.create_server``, ``loop.time`` / ``call_at`` and
:class:`asyncio.Protocol`, so the *unmodified* client, server and frontend
run here on :class:`VirtualLoop`: its clock jumps to the next timer
instead of waiting, each connection is a pair of in-memory :class:`Pipe`\\ s
keyed by the server's port, and it realises a
:class:`~repro.resilience.FaultPlan` per port or replays a whole
:class:`~repro.resilience.FaultSchedule`.  A fault test is
``run(body(), seed)``, ``body`` building the stack with :func:`cluster`;
every latency, chunk boundary and fault draw comes from the seed, so the
``simnet seed=N`` a failure carries replays it bit for bit.
"""

import asyncio
import itertools
import random
from contextlib import asynccontextmanager
from functools import partialmethod
from types import SimpleNamespace

from repro.bloom.config import optimal_config
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import FaultPlan, ResiliencePolicy

#: one-way delivery time; each piece adds a jitter of up to as much again,
#: in quarter steps, so deliveries on different connections can land in
#: one loop iteration — as a batch of ready sockets does in one ``select``
LATENCY = 50e-6
#: bytes the peer's socket buffers absorb before a writer's buffer grows
WINDOW = 256 * 1024
BENIGN = FaultPlan.none()
BLOOM = optimal_config(1000)
POLICY = ResiliencePolicy.aggressive(op_timeout=0.2)


class VirtualLoop(asyncio.SelectorEventLoop):
    """An event loop on a virtual clock with an in-memory network."""

    def __init__(self, seed=0):
        self.now = 0.0
        self.seed = seed
        #: latencies and chunk boundaries; fault decisions use per-plan RNGs
        self.rng = random.Random(seed)
        self.listeners = {}  # port -> protocol factory
        self.faults = {}  # port -> (plan, its RNG)
        self.accepted = {}  # port -> server ends of its connections
        self._ports = itertools.count(40000)
        selector = SimpleNamespace(select=self._select, close=lambda: None)
        super().__init__(selector)

    def time(self):
        return self.now

    def _select(self, timeout):
        """The selector: no file descriptors, only the timer heap."""
        if timeout is None:
            raise RuntimeError(f"deadlock at t={self.now}, seed={self.seed}")
        if timeout > 0:
            self.now = self._scheduled[0]._when
        return []

    # Nothing outside the loop can wake it, so it needs no self-pipe.
    _make_self_pipe = _close_self_pipe = lambda self: None

    async def create_server(self, factory, host=None, port=0, **_):
        port = port or next(self._ports)
        self.listeners[port] = factory
        return Listener(self, port)

    async def create_connection(self, factory, host=None, port=None, **_):
        await asyncio.sleep(LATENCY * (2 + self.rng.randrange(5) / 4))
        plan = self.fault(port)[0]
        if plan.drop_syn:
            await self.create_future()  # the dial never completes
        await asyncio.sleep(plan.connect_delay)
        accept = self.listeners.get(port)
        if accept is None or self.fault(port)[0].reject_connections:
            raise ConnectionRefusedError(f"[simnet] {host}:{port} refused")
        client, server = Pipe(self, port, False), Pipe(self, port, True)
        client.peer, server.peer = server, client
        self.accepted.setdefault(port, []).append(server)
        server.protocol = accept()
        server.protocol.connection_made(server)
        client.protocol = factory()
        client.protocol.connection_made(client)
        return client, client.protocol

    def fault(self, port):
        """``(plan, rng)`` in force on the path to the server on *port*."""
        return self.faults.get(port, (BENIGN, self.rng))

    def set_plan(self, port, plan):
        """Realise *plan* on the path to *port*'s server from now on; its
        RNG restarts from the run's and the plan's seeds, and a killing
        plan aborts every open connection."""
        rng = random.Random(f"{self.seed}:{port}:{plan.seed}")
        self.faults[port] = (plan, rng)
        if plan.reject_connections:
            for pipe in self.accepted.pop(port, ()):
                pipe.abort()

    def replay(self, schedule, ports):
        """Arm *schedule* (server ids index *ports*): at every entry's
        ``at`` and ``clear_at`` each server it names gets the plan then in
        force, or none."""
        times = {t for e in schedule.entries for t in (e.at, e.clear_at)}
        times.discard(None)
        for when in sorted(times):
            self.call_at(when, self._apply, schedule, ports, when)

    def _apply(self, schedule, ports, when):
        plans = schedule.plans_at(when)
        for server_id in schedule.servers():
            plan = plans.get(server_id, BENIGN)
            if self.fault(ports[server_id])[0] != plan:
                self.set_plan(ports[server_id], plan)


class Listener:
    """What ``create_server`` returns: closing it refuses later dials and
    leaves open connections alone, as a real listening socket does."""

    def __init__(self, loop, port):
        self.loop, self.port = loop, port
        address = ("127.0.0.1", port)
        self.sockets = (SimpleNamespace(getsockname=lambda: address),)

    def close(self):
        self.loop.listeners.pop(self.port, None)

    async def wait_closed(self):
        pass


class Pipe(asyncio.Transport):
    """One end of a connection to the server on *port*; *response* marks
    the server's end, whose writes take the plan's response faults."""

    def __init__(self, loop, port, response):
        super().__init__()
        self.loop, self.port, self.response = loop, port, response
        self.protocol = self.peer = None
        self.closing = self.lost = self.paused = self.writing_paused = False
        self.parked = []  # deliveries held while reading is paused
        self.unread = 0  # bytes written that the peer has not yet read
        self.high, self.low = 64 * 1024, 16 * 1024
        self.clear_at = 0.0  # arrival time of the last piece sent

    def write(self, data):
        if self.closing or not data:
            return
        plan, rng = self.loop.fault(self.port)
        if plan.blackhole or plan.drop_syn:
            return
        if not self.response:
            if rng.random() >= plan.drop_request_probability:
                self.send(bytes(data))
            return
        extra = plan.delay + plan.delay_jitter * rng.random()
        if rng.random() < plan.reset_probability:
            self.abort()
        elif rng.random() < plan.partial_write_probability:
            self.send(bytes(data[: max(1, len(data) // 2)]), extra)
            self.abort()
        else:
            self.send(bytes(data), extra)

    def send(self, data, extra=0.0):
        """Deliver *data* re-chunked at up to two random offsets."""
        rng = self.loop.rng
        cuts = min(len(data) - 1, rng.randrange(3))
        bounds = [0, *sorted(rng.sample(range(1, len(data)), cuts)), len(data)]
        for start, end in zip(bounds, bounds[1:]):
            self.deliver("data", data[start:end], extra)
        self.unread += len(data)
        if not self.writing_paused and self.get_write_buffer_size() > self.high:
            self.writing_paused = True
            self.protocol.pause_writing()

    def deliver(self, kind, payload=None, extra=0.0):
        """Schedule *kind* at the peer after a jittered latency, strictly
        after everything this end sent before."""
        delay = LATENCY * (1 + self.loop.rng.randrange(5) / 4) + extra
        self.clear_at = max(self.loop.now + delay, self.clear_at + 1e-9)
        self.loop.call_at(self.clear_at, self.peer.receive, kind, payload)

    def get_write_buffer_size(self):
        return max(0, self.unread - WINDOW)

    def set_write_buffer_limits(self, high=None, low=None):
        self.high = 64 * 1024 if high is None else high
        self.low = self.high // 4 if low is None else low

    def receive(self, kind, payload):
        if self.closing:  # a reset answers data sent to a closed socket
            if kind == "data":
                self.peer.lose(ConnectionResetError("[simnet] reset"))
        elif self.paused and kind != "rst":
            self.parked.append((kind, payload))
        elif kind == "data":
            self.peer.read(len(payload))
            self.protocol.data_received(payload)
        elif kind == "eof":
            if not self.protocol.eof_received():
                self.close()
        else:
            self.lose(ConnectionResetError("[simnet] reset by peer"))

    def read(self, size):
        """The peer read *size* of this end's bytes."""
        self.unread -= size
        if self.writing_paused and self.get_write_buffer_size() <= self.low:
            self.writing_paused = False
            self.protocol.resume_writing()

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        if self.paused:
            self.paused = False
            parked, self.parked = self.parked, []
            for item in parked:
                self.loop.call_soon(self.receive, *item)

    def is_closing(self):
        return self.closing

    def shut(self, kind):
        if not self.closing:
            self.closing = True
            self.deliver(kind)
            self.loop.call_soon(self.lose, None)

    close = partialmethod(shut, "eof")
    abort = partialmethod(shut, "rst")

    def lose(self, exc):
        if not self.lost:
            self.lost = self.closing = True
            self.parked.clear()
            self.protocol.connection_lost(exc)


def run(main, seed=0):
    """Run coroutine *main* on a fresh :class:`VirtualLoop` seeded *seed*
    and return its result; a task it leaves pending is a failure, and any
    failure carries the note ``simnet seed=N``."""
    loop = VirtualLoop(seed)
    try:
        result = loop.run_until_complete(main)
        leftover = asyncio.all_tasks(loop)
        assert not leftover, f"tasks left pending: {leftover}"
        return result
    except BaseException as error:
        error.add_note(f"simnet seed={seed}")
        raise
    finally:
        loop.close()


def value_of(key):
    return f"db:{key}".encode()


async def database(key):
    return value_of(key)


@asynccontextmanager
async def cluster(n=3, policy=POLICY, database=database, **frontend):
    """*n* unmodified ``MemcachedServer``\\ s and an
    ``AsyncProteusFrontend`` over them (extra keywords go to it), all on
    the running virtual loop's clock; closed and stopped on exit."""
    loop = asyncio.get_running_loop()
    servers = [
        MemcachedServer(bloom_config=BLOOM, clock=loop.time) for _ in range(n)
    ]
    ports = [await server.start() for server in servers]
    web = AsyncProteusFrontend(
        [("127.0.0.1", port) for port in ports], BLOOM, database,
        clock=loop.time, resilience=policy, **frontend,
    )
    stack = SimpleNamespace(
        loop=loop, servers=servers, ports=ports, web=web,
        set_plan=lambda server_id, plan: loop.set_plan(ports[server_id], plan),
        replay=lambda schedule: loop.replay(schedule, ports),
    )
    await web.connect()
    try:
        yield stack
    finally:
        await web.close()
        for server in servers:
            await server.stop()
