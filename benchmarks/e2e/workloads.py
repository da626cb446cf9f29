"""The four workloads and the bench that runs them.

A :class:`Bench` is one set-up cluster — three cache servers and one
``AsyncProteusFrontend`` — for one workload.  The workload drives it in
*slices*: closed-loop bursts of pages from a fixed number of concurrent
fetchers, each bracketed by work-unit measurements.  Every returned value
is checked after the slice's clock has stopped.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bloom.config import optimal_config
from repro.core.retrieval import FetchPath
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend

from cluster import EXPECTED_KEYS, Children, Cores, UnitProbe
from harness import (
    SetUp,
    Slice,
    lru_contents,
    make_value,
    stream_rng,
    uniform_pages,
    zipf_cdf,
    zipf_pages,
)

SERVERS = 3
#: paths that mean a key was not served the way a healthy cluster serves it
FAILED_PATHS = (FetchPath.SHED, FetchPath.DEGRADED_DB)
#: drain window handed to ``scale_to``; the bench closes it by stepping the
#: frontend's clock, never by waiting
TTL = 3600.0
PREWARM_CHUNK = 500


class Budget:
    """How much a workload may still measure: wall seconds (end-to-end
    runs) or a fixed page count (traced runs, so that counts repeat)."""

    def __init__(
        self, seconds: Optional[float] = None, pages: Optional[int] = None
    ) -> None:
        self._deadline = None if seconds is None else time.perf_counter() + seconds
        self._pages = pages

    def grant(self, pages: int) -> int:
        """Pages the next slice may run (0: stop)."""
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            return 0
        if self._pages is None:
            return pages
        granted = min(pages, self._pages)
        self._pages -= granted
        return granted


class InProcessServers:
    """The traced run's cluster: servers on the client's own loop, so both
    sides of the wire land on one timeline."""

    def __init__(self, capacity_mb: Optional[float]) -> None:
        capacity = None if capacity_mb is None else int(capacity_mb * (1 << 20))
        self.servers = [
            MemcachedServer(
                capacity_bytes=capacity,
                bloom_config=optimal_config(EXPECTED_KEYS),
            )
            for _ in range(SERVERS)
        ]
        self.endpoints = []

    async def start(self) -> None:
        for server in self.servers:
            self.endpoints.append(("127.0.0.1", await server.start()))

    async def stop(self) -> None:
        for server in self.servers:
            await server.stop()


class Bench:
    """One cluster + frontend, set up for one workload."""

    def __init__(self, workload: "Workload", fetchers: int) -> None:
        self.workload = workload
        self.fetchers = fetchers
        self.skew = 0.0          #: seconds the frontend's clock runs ahead
        self.db_reads = 0
        self.slices: List[Slice] = []
        self.scale_to_wus: List[float] = []
        self.violations: List[str] = []
        self.setup: Optional[SetUp] = None
        self.children: Optional[Children] = None
        self.local: Optional[InProcessServers] = None
        self.web: Optional[AsyncProteusFrontend] = None
        self.admin: List[MemcachedClient] = []
        self.probe: Optional[UnitProbe] = None
        self._unit: Optional[float] = None
        #: replaced by the tracer's wrapper in a traced run
        self.database: Callable = self._database

    # ------------------------------------------------------------ lifecycle

    async def set_up(self, cores: Cores, in_process: bool) -> None:
        """Spawn, connect, flush and prewarm — the span ``setup_s`` times."""
        started = time.perf_counter()
        capacity = self.workload.capacity_mb
        if in_process:
            self.local = InProcessServers(capacity)
            await self.local.start()
            endpoints = self.local.endpoints
            self.children = Children(0, None, cores)
        else:
            self.children = Children(SERVERS, capacity, cores)
            endpoints = self.children.endpoints
        self.web = AsyncProteusFrontend(
            endpoints,
            optimal_config(EXPECTED_KEYS),
            lambda key: self.database(key),
            pool_size=1,
            clock=lambda: time.monotonic() + self.skew,
        )
        await self.web.connect()
        for host, port in endpoints:
            client = MemcachedClient(host, port)
            await client.connect()
            await client.flush_all()
            self.admin.append(client)
        await self.workload.prepare(self)
        self.probe = await UnitProbe.connect(self.children.echo_port)
        wall = time.perf_counter() - started
        self._unit = await self.probe.measure()
        self.setup = SetUp(wall, self._unit)

    async def tear_down(self) -> None:
        try:
            if self.probe is not None:
                self.probe.close()
            for client in self.admin:
                await client.close()
            if self.web is not None:
                await self.web.close()
            if self.local is not None:
                await self.local.stop()
        finally:
            if self.children is not None:
                self.children.stop()

    # -------------------------------------------------------------- helpers

    async def _database(self, key: str) -> bytes:
        self.db_reads += 1
        return make_value(key, self.workload.value_size)

    async def prewarm(self, keys: Sequence[str]) -> None:
        """Store every key on its owner at ``n = SERVERS`` (in key order)."""
        assert self.web is not None
        size = self.workload.value_size
        grouped: Dict[int, List] = {}
        for key, owner in zip(keys, self.web.router.route_many(keys, SERVERS)):
            grouped.setdefault(owner, []).append((key, make_value(key, size)))
        for owner, items in grouped.items():
            for at in range(0, len(items), PREWARM_CHUNK):
                await self.admin[owner].set_multi(items[at: at + PREWARM_CHUNK])

    async def flush(self, servers: Sequence[int]) -> None:
        for server in servers:
            await self.admin[server].flush_all()
        self._unit = None

    async def scale_to(self, n_new: int) -> None:
        """A timed ``scale_to``; its wall time in work units goes to the
        raw block (too bimodal to be an end-to-end metric)."""
        assert self.web is not None and self.probe is not None
        unit = await self.probe.measure()
        started = time.perf_counter()
        await self.web.scale_to(n_new, ttl=TTL)
        self.scale_to_wus.append((time.perf_counter() - started) / unit)
        self._unit = None

    def close_window(self) -> None:
        """Step the frontend's clock past the drain deadline."""
        self.skew += TTL + 1.0

    async def wire_stats(self) -> Dict[str, int]:
        """The servers' ``stats`` counters, summed."""
        totals: Dict[str, int] = {}
        for client in self.admin:
            for name, value in (await client.stats()).items():
                totals[name] = totals.get(name, 0) + int(value)
        return totals

    # ---------------------------------------------------------------- slices

    async def run_slice(self, pages: Sequence[Sequence[List[str]]]) -> Slice:
        """One closed-loop burst: ``pages[f]`` is fetcher *f*'s page list.
        Values and paths are checked after the clock has stopped."""
        assert self.web is not None and self.probe is not None
        web = self.web
        # In-process servers are already inside the client's process_time.
        cpu_of = self.children.cpu_seconds
        latencies: List[float] = []
        fetched = []

        async def fetcher(my_pages: Sequence[List[str]]) -> None:
            for keys in my_pages:
                started = time.perf_counter()
                try:
                    result = await web.fetch_many(keys)
                except Exception as error:  # a failed page, never a crash
                    result = error
                latencies.append(time.perf_counter() - started)
                fetched.append((keys, result))

        before = self._unit
        if before is None:
            before = await self.probe.measure()
        stats_before = web.stats.total
        reads_before = self.db_reads
        cpu_before = time.process_time() + cpu_of()
        started = time.perf_counter()
        await asyncio.gather(*(fetcher(mine) for mine in pages))
        wall = time.perf_counter() - started
        cpu = time.process_time() + cpu_of() - cpu_before
        after = self._unit = await self.probe.measure()

        size = self.workload.value_size
        keys_attempted = failed = raised = 0
        for keys, result in fetched:
            keys_attempted += len(keys)
            if isinstance(result, Exception):
                failed += len(keys)
                raised += len(keys)
                continue
            for key in keys:
                got = result.get(key)
                if (
                    got is None
                    or got.value != make_value(key, size)
                    or got.path in FAILED_PATHS
                ):
                    failed += 1
        if web.stats.total - stats_before != keys_attempted - raised:
            self.violations.append(
                f"FetchStats paths sum to {web.stats.total - stats_before}, "
                f"{keys_attempted - raised} keys were fetched"
            )
        done = Slice(
            latencies=latencies, wall=wall, cpu=cpu,
            unit_before=before, unit_after=after,
            keys=keys_attempted, failed=failed,
            db_reads=self.db_reads - reads_before,
        )
        self.slices.append(done)
        return done

    async def check_quiescent(self) -> None:
        """At rest nothing may be in flight and nothing may have been shed
        or degraded; each ``stats`` command counts itself in flight."""
        assert self.web is not None
        for server, client in enumerate(self.admin):
            stats = await client.stats()
            if int(stats["inflight_commands"]) != 1:
                self.violations.append(
                    f"server {server}: inflight_commands "
                    f"{int(stats['inflight_commands']) - 1} at rest"
                )
            if int(stats["shed_commands"]) != 0:
                self.violations.append(
                    f"server {server}: shed_commands {stats['shed_commands']}"
                )
        transport = self.web.transport_stats()
        for name in ("unavailable_rpcs", "shed_rpcs"):
            if transport[name] != 0:
                self.violations.append(f"frontend: {name} {transport[name]}")
        if self.workload.hits_only and self.db_reads:
            self.violations.append(
                f"{self.db_reads} database reads on an all-hit workload"
            )


# ------------------------------------------------------------------ workloads


@dataclass
class Workload:
    """What the four workloads share; each subclass says how it prepares
    the cluster and how it spends its budget."""

    name: str
    why: str
    stream: int                  #: key-stream id (see ``stream_rng``)
    page_size: int
    universe: int
    slice_pages: int             #: pages per slice, all fetchers together
    trace_pages: int             #: pages of the traced run at 20 seconds
    value_size: int = 128
    capacity_mb: Optional[float] = None
    hits_only: bool = False

    def key(self, index: int) -> str:
        return f"page:{index}"

    async def prepare(self, bench: Bench) -> None:
        await bench.prewarm([self.key(i) for i in range(self.universe)])

    def draw(self, rng: np.random.Generator, pages: int) -> List[List[int]]:
        return uniform_pages(rng, self.universe, self.page_size, pages)

    def pages_for(
        self, rngs: Sequence[np.random.Generator], pages: int,
        key: Optional[Callable[[int], str]] = None,
    ) -> List[List[List[str]]]:
        """Split *pages* evenly over the fetchers' streams."""
        key = key or self.key
        share = max(1, pages // len(rngs))
        return [
            [[key(i) for i in page] for page in self.draw(rng, share)]
            for rng in rngs
        ]

    async def run(self, bench: Bench, budget: Budget, seed: int) -> None:
        rngs = [stream_rng(seed, self.stream, f) for f in range(bench.fetchers)]
        while True:
            pages = budget.grant(self.slice_pages)
            if not pages:
                break
            await bench.run_slice(self.pages_for(rngs, pages))


@dataclass
class Transition(Workload):
    """The paper's scenario: scale 3 -> 2 -> 3 under load, over and over."""

    phase_slices: int = 4        #: slices between a ``scale_to`` and its close

    async def prepare(self, bench: Bench) -> None:
        pass  # every cycle prewarms its own sub-universe

    async def run(self, bench: Bench, budget: Budget, seed: int) -> None:
        rngs = [stream_rng(seed, self.stream, f) for f in range(bench.fetchers)]
        cycle_pages = 2 * self.phase_slices * self.slice_pages
        cycle = 0
        while budget.grant(cycle_pages):
            prefix = f"c{cycle}:"
            key = lambda index: f"{prefix}page:{index}"  # noqa: E731
            # Identical start for every cycle: empty servers, then this
            # cycle's own keys on their n=3 owners.
            await bench.flush(range(SERVERS))
            await bench.prewarm([key(i) for i in range(self.universe)])
            for n_new in (SERVERS - 1, SERVERS):
                if n_new == SERVERS:
                    # The drained server was powered off: it comes back empty.
                    await bench.flush([SERVERS - 1])
                await bench.scale_to(n_new)
                for _ in range(self.phase_slices):
                    await bench.run_slice(
                        self.pages_for(rngs, self.slice_pages, key)
                    )
                bench.close_window()
            cycle += 1


@dataclass
class Churn(Workload):
    """Working set four times the cache: misses, write-backs, evictions."""

    exponent: float = 0.9
    warm_draws: int = 400_000    #: simulated accesses behind the prefill
    warm_pages: int = 100        #: pages fetched for real after it

    def __post_init__(self) -> None:
        self._cdf = zipf_cdf(self.universe, self.exponent)

    def draw(self, rng: np.random.Generator, pages: int) -> List[List[int]]:
        return zipf_pages(rng, self._cdf, self.page_size, pages)

    async def prepare(self, bench: Bench) -> None:
        # Start at the LRU's steady state, not on the way to it: replay
        # the stream against simulated LRUs, store what they end up
        # holding in eviction order, then fetch a few pages for real.
        assert self.capacity_mb is not None and bench.web is not None
        rngs = [stream_rng(0, self.stream, 100 + f) for f in range(bench.fetchers)]
        keys = [self.key(i) for i in range(self.universe)]
        held = lru_contents(
            np.searchsorted(self._cdf, rngs[0].random(self.warm_draws)).tolist(),
            bench.web.router.route_many(keys, SERVERS), SERVERS,
            int(self.capacity_mb * (1 << 20)) // self.value_size,
        )
        await bench.prewarm([keys[i] for cache in held for i in cache])
        for pages in zip(*self.pages_for(rngs, self.warm_pages)):
            await asyncio.gather(*(bench.web.fetch_many(p) for p in pages))
        bench.db_reads = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="page1_hit", stream=1, page_size=1, universe=20_000,
            slice_pages=800, trace_pages=600, hits_only=True,
            why="1-key pages, all hits: per-page fixed cost (engine set-up, "
                "gather, pool lease, armor, loop, syscalls) is all there is",
        ),
        Workload(
            name="page64_hit", stream=2, page_size=64, universe=20_000,
            slice_pages=160, trace_pages=600, hits_only=True,
            why="64-key pages, all hits: per-key work (hashing, routing, "
                "encode, both parsers, store get) dominates, fixed cost "
                "amortised 64x",
        ),
        Transition(
            name="page16_transition", stream=3, page_size=16, universe=4_000,
            slice_pages=125, trace_pages=1000,
            why="the paper's scenario: scale 3->2->3 under load; digest "
                "broadcast, old-owner probes and write-backs; counts the "
                "miss storm a resize costs",
        ),
        Churn(
            name="page16_churn", stream=4, page_size=16, universe=40_000,
            slice_pages=64, trace_pages=600, value_size=1024,
            capacity_mb=3.5,
            why="Zipf(0.9) over a 1 KiB-value working set 4x the cache: "
                "misses, database, write-backs, LRU eviction and digest "
                "updates; the store's write path",
        ),
    )
}
