"""Store-pressure bench — ``set`` into a *full* cache node must not scale
with the number of resident items.

Algorithm 2 ends every miss with a write-back into the new owner, and the
paper's nodes are memcached boxes that are full (Fig. 6), so "set at
capacity" is the steady-state write path.  Before it may evict a live
item the store reclaims everything already expired; this bench measures
what that costs per ``set`` as the node grows from 1 k to 64 k resident
items, with the digest hooks attached, on an injected clock that ticks
once per ``set``.  Three rows:

* ``no_ttl`` — parsed ``set`` requests through
  ``MemcachedServer._dispatch``; nothing ever expires, so every set
  evicts the LRU victim.
* ``ttl_10pct`` — the same, but every tenth item carries a TTL of half a
  cache turnover, so it comes due before LRU reaches it and is reclaimed
  by the expiry path instead.
* ``wire`` — the ``no_ttl`` sets as bytes, pipelined ``BURST`` to a chunk
  through ``ServerConnection.data_received``: the whole server-side
  write path (framing, parsing, the store, the digest, the reply) minus
  the socket.

**Gate** (asserted in :func:`run_bench` and therefore in CI): per-op
cost at 64 k items / per-op cost at 1 k items <= 1.5 on every row.  The
ratio is machine-independent even though the nanoseconds are not; with
the full-store scan it replaced the ratio was ~50-60.

Results go to ``BENCH_store.json``; ``--check`` re-runs the bench and
re-asserts the gate without rewriting the file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks import _ratchet  # noqa: E402
from benchmarks.conftest import fmt_row  # noqa: E402
from repro.bloom.config import optimal_config  # noqa: E402
from repro.net import protocol as proto  # noqa: E402
from repro.net.server import (  # noqa: E402
    MemcachedServer, ServerConnection,
)

JSON_PATH = REPO_ROOT / "BENCH_store.json"

SIZES = (1_000, 4_000, 16_000, 64_000)
VALUE = b"x" * 64
TIMED_SETS = SIZES[0]  # sets per timed round: at most one turnover, see drive()
ROUNDS = 15            # best-of: the floor is what the data structure costs
TTL_EVERY = 10         # ttl_10pct: one item in ten carries a TTL
BURST = 100            # wire: sets per chunk
#: row -> (one item in how many carries a TTL, fed as bytes)
MIXES = (("no_ttl", 0, False), ("ttl_10pct", TTL_EVERY, False),
         ("wire", 0, True))
GATE_RATIO = 1.5       # cost(64 k) / cost(1 k)


def _requests(start: int, count: int, resident: int, ttl_every: int):
    ttl = resident // 2
    return [
        proto.Request(
            "set", [f"key:{i}"], value=VALUE, num_bytes=len(VALUE),
            exptime=ttl if ttl_every and i % ttl_every == 0 else 0,
        )
        for i in range(start, start + count)
    ]


def _chunks(requests) -> List[bytes]:
    """*requests* on the wire, ``BURST`` to a chunk."""
    wire = [
        b"set %s 0 %d %d\r\n%s\r\n" % (
            r.keys[0].encode(), r.exptime, len(r.value), r.value,
        )
        for r in requests
    ]
    return [
        b"".join(wire[at: at + BURST]) for at in range(0, len(wire), BURST)
    ]


class _Sink:
    """The connection's transport: counts the reply bytes it is handed."""

    def __init__(self) -> None:
        self.written = 0

    def write(self, data: bytes) -> None:
        self.written += len(data)


class _FullNode:
    """A server filled to capacity and one turnover past it, so TTL'd and
    LRU departures are in steady-state proportions before timing."""

    def __init__(self, resident: int, ttl_every: int, wire: bool) -> None:
        self.resident = resident
        self.ttl_every = ttl_every
        self.wire = wire
        self.now = 0.0   # one virtual second per set: exptime is whole seconds
        self.server = MemcachedServer(
            capacity_bytes=resident * len(VALUE),
            bloom_config=optimal_config(resident),
            clock=self._tick,
        )
        # A connection needs no socket: its transport is a byte counter.
        self.connection = ServerConnection(self.server)
        self.connection.transport = _Sink()
        self.issued = 0
        self.drive(2 * resident)
        store = self.server.store
        assert len(store) >= resident - resident // TTL_EVERY - 1
        assert store.stats.evictions > 0

    def _tick(self) -> float:
        """The server's clock: the write path reads it once per ``set``."""
        self.now += 1.0
        return self.now

    def drive(self, count: int) -> float:
        """Seconds per ``set`` over *count* fresh keys.

        The digest hashes a key straight through blake2b as it links and
        unlinks it (no process-wide memo), so a departing key costs the
        same at every size.
        """
        batch = _requests(self.issued, count, self.resident, self.ttl_every)
        self.issued += count
        if self.wire:
            feed, batch = self.connection.data_received, _chunks(batch)
        else:
            feed = self.server._dispatch
        started = time.perf_counter()
        for item in batch:
            feed(item)
        return (time.perf_counter() - started) / count

    def check(self) -> None:
        server = self.server
        assert server.digest.count == len(server.store)
        if self.ttl_every:
            assert server.store.stats.expirations > 0
        if self.wire:  # every set answered STORED, none held in flight
            assert self.connection.transport.written == 8 * self.issued
            assert server.inflight == 0


def _costs_ns(ttl_every: int, wire: bool) -> Dict[str, int]:
    """Best-of-``ROUNDS`` ns per ``set`` at each size.  Rounds visit the
    sizes in turn so machine drift lands on every size alike."""
    nodes = [_FullNode(n, ttl_every, wire) for n in SIZES]
    best = [float("inf")] * len(nodes)
    for _ in range(ROUNDS):
        for i, node in enumerate(nodes):
            best[i] = min(best[i], node.drive(TIMED_SETS))
    for node in nodes:
        node.check()
    return {str(n): round(cost * 1e9) for n, cost in zip(SIZES, best)}


def run_bench() -> Dict[str, object]:
    report: Dict[str, object] = {
        "value_bytes": len(VALUE),
        "timed_sets": TIMED_SETS,
        "rounds": ROUNDS,
        "gate_ratio": GATE_RATIO,
    }
    for name, ttl_every, wire in MIXES:
        costs = _costs_ns(ttl_every, wire)
        ratio = round(costs[str(SIZES[-1])] / costs[str(SIZES[0])], 2)
        report[name] = {"set_ns": costs, "ratio_64k_over_1k": ratio}
    for name, _, _ in MIXES:
        ratio = report[name]["ratio_64k_over_1k"]
        assert ratio <= GATE_RATIO, (
            f"{name}: set at capacity costs {ratio}x more at "
            f"{SIZES[-1]} resident items than at {SIZES[0]} "
            f"(gate: <= {GATE_RATIO}x) — {report[name]['set_ns']}"
        )
    return report


def print_report(report: Dict[str, object]) -> None:
    print("\nset at capacity, _dispatch or wire (ns/op):")
    print(fmt_row("mix", [f"{n // 1000}k" for n in SIZES] + ["64k/1k"],
                  width=10))
    for name, _, _ in MIXES:
        row: List[object] = [report[name]["set_ns"][str(n)] for n in SIZES]
        print(fmt_row(name, row + [report[name]["ratio_64k_over_1k"]],
                      width=10))
    print(f"gate: 64k/1k <= {GATE_RATIO}x on every row")


def test_set_at_capacity_does_not_scale_with_residents():
    """Per-op cost is flat from 1 k to 64 k resident items (asserted
    inside :func:`run_bench`)."""
    report = run_bench()
    print_report(report)
    _ratchet.write_report(JSON_PATH, report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="gate mode: re-run and re-assert cost(64k)/cost(1k) <= "
             f"{GATE_RATIO} (BENCH_store.json is not rewritten)",
    )
    args = parser.parse_args()
    report = run_bench()
    print_report(report)
    if args.check:
        committed = _ratchet.load_committed(JSON_PATH)
        if committed is None:
            return 1
        for name, _, _ in MIXES:
            print(f"gate: {name} 64k/1k {report[name]['ratio_64k_over_1k']}x "
                  f"(committed {committed[name]['ratio_64k_over_1k']}x, "
                  f"limit {GATE_RATIO}x): OK")
        return 0
    _ratchet.write_report(JSON_PATH, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
