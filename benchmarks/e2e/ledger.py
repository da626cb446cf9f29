"""The cost ledger: what each layer costs alone, on the request mix the
hit workloads record, every row in work units.

Rows (a page is one recorded ``fetch_many`` key list; its *batches* are
the per-server key groups the engine would probe):

* ``ledger.page_wu`` — the whole thing: ``fetch_many`` from one fetcher;
* ``ledger.client_rpc_wu`` — bare ``MemcachedClient.get_multi`` of the
  page's batches, gathered, against the same server processes;
* ``ledger.server_burst_wu`` — the batches' pre-encoded bytes down raw
  sockets until every reply has fully arrived (part of the row above);
* ``ledger.plan_wu`` — ``retrieve_many`` driven against an in-memory
  answerer, no I/O;
* ``ledger.route_wu`` — ``KeyHashes`` + ``route_many`` (part of the plan);
* ``ledger.armor_rpc_wu`` / ``ledger.armor_overload_rpc_wu`` — the
  resilience calls one healthy RPC makes, under ``ResiliencePolicy
  .default()`` and ``.overload_armor(op_timeout=2.0)``;
* ``ledger.coverage`` — (client_rpc + plan + armor x batches per page)
  over page: how much of a page the rows explain.
"""

from __future__ import annotations

import asyncio
import inspect
import socket
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bloom.hashing import KeyHashes
from repro.core.retrieval import RetrievalEngine
from repro.core.transition import RoutingEpochs
from repro.resilience import ResiliencePolicy

from cluster import Cores
from harness import make_value, stream_rng
from workloads import SERVERS, WORKLOADS, Bench

#: the self-check on ``page64_hit``: rows must explain a page, not more
COVERAGE_OK = (0.6, 1.2)
LEDGER_WORKLOADS = ("page1_hit", "page64_hit")
PAGES = {"page1_hit": 2000, "page64_hit": 400}
ARMOR_RPCS = 2000

Batches = List[Tuple[int, List[str]]]


def _read_reply(sock: socket.socket) -> None:
    reply = b""
    while not reply.endswith(b"END\r\n"):
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the burst connection")
        reply += chunk


def _armor_rpc(policy: ResiliencePolicy) -> Callable[[], None]:
    """The public resilience calls around one healthy cache RPC, in the
    order the frontend makes them."""
    clock = time.monotonic
    breaker = policy.new_breaker(clock)
    limiter = policy.new_limiter(clock)
    budget = policy.new_retry_budget(clock)

    def rpc() -> None:
        deadline = policy.new_deadline(clock)
        deadline.expired()
        breaker.allow(clock())
        if limiter is not None:
            limiter.try_acquire(clock())
        if budget is not None:
            budget.record_request(now=clock())
        list(policy.retry.delays())
        deadline.expired()
        breaker.record_success(clock())
        if limiter is not None:
            limiter.on_success(clock())
            limiter.release()

    return rpc


async def _rows(name: str, seed: int, cores: Cores,
                quick: bool) -> Dict[str, float]:
    workload = WORKLOADS[name]
    bench = Bench(workload, fetchers=1)
    socks: List[socket.socket] = []
    try:
        await bench.set_up(cores, in_process=False)
        web, probe = bench.web, bench.probe
        count = PAGES[name] // (10 if quick else 1)
        recorded = workload.pages_for(
            [stream_rng(seed, workload.stream, 0)], count
        )[0]
        batches: List[Batches] = []
        for keys in recorded:
            grouped: Dict[int, List[str]] = {}
            for key, owner in zip(keys, web.router.route_many(keys, SERVERS)):
                grouped.setdefault(owner, []).append(key)
            batches.append(sorted(grouped.items()))
        values = {
            key: make_value(key, workload.value_size)
            for keys in recorded for key in keys
        }
        rows: Dict[str, float] = {}

        async def row(label: str, run_page: Callable, pages: Sequence) -> None:
            """Median seconds per page of *run_page* (plain or coroutine
            function), in work units."""
            before = await probe.measure()
            samples = []
            for page in pages:
                started = time.perf_counter()
                outcome = run_page(page)
                if inspect.isawaitable(outcome):
                    await outcome
                samples.append(time.perf_counter() - started)
            unit = (before + await probe.measure()) / 2
            rows[label] = statistics.median(samples) / unit

        await row("ledger.page_wu", web.fetch_many, recorded)

        def rpc_page(page: Batches):
            return asyncio.gather(*(
                bench.admin[server].get_multi(keys) for server, keys in page
            ))
        await row("ledger.client_rpc_wu", rpc_page, batches)

        for host, port in bench.children.endpoints:
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)

        def burst_page(page) -> None:
            for server, request in page:
                socks[server].sendall(request)
            for server, _ in page:
                _read_reply(socks[server])
        await row("ledger.server_burst_wu", burst_page, [
            [(server, ("get " + " ".join(keys) + "\r\n").encode("ascii"))
             for server, keys in page]
            for page in batches
        ])

        engine = RetrievalEngine(web.router)
        epochs = RoutingEpochs(new=SERVERS, old=None, transition=None)

        def plan_page(keys: List[str]) -> None:
            steps = engine.retrieve_many(keys, epochs, now=0.0)
            answers = None
            try:
                while True:
                    answers = tuple(
                        {key: values[key] for key in command.keys}
                        for command in steps.send(answers)
                    )
            except StopIteration:
                pass
        await row("ledger.plan_wu", plan_page, recorded)

        def route_page(keys: List[str]) -> None:
            for key in keys:
                KeyHashes(key)
            web.router.route_many(keys, SERVERS)
        await row("ledger.route_wu", route_page, recorded)

        for label, policy in (
            ("ledger.armor_rpc_wu", ResiliencePolicy.default()),
            ("ledger.armor_overload_rpc_wu",
             ResiliencePolicy.overload_armor(op_timeout=2.0)),
        ):
            rpc = _armor_rpc(policy)
            await row(label, lambda _: rpc(), range(ARMOR_RPCS))

        per_page = statistics.mean(len(page) for page in batches)
        rows["ledger.batches_per_page"] = per_page
        rows["ledger.coverage"] = (
            rows["ledger.client_rpc_wu"] + rows["ledger.plan_wu"]
            + rows["ledger.armor_rpc_wu"] * per_page
        ) / rows["ledger.page_wu"]
        return rows
    finally:
        for sock in socks:
            sock.close()
        await bench.tear_down()


async def run(seed: int, cores: Cores,
              quick: bool = False) -> Dict[str, Dict[str, float]]:
    """The ledger on each hit workload's recorded request mix."""
    return {
        name: await _rows(name, seed, cores, quick)
        for name in LEDGER_WORKLOADS
    }
