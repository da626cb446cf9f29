"""End-to-end page-fetch benchmark (see README.md beside this file).

One process drives a real ``AsyncProteusFrontend`` against three
``repro.net.server`` child processes over loopback, closed loop, two
concurrent page fetchers, every time divided by a work unit measured
beside it; a separate traced run attributes a page's time layer by layer.

    python3 benchmarks/e2e/run.py                  # all workloads, report
    python3 benchmarks/e2e/run.py --quick          # smoke run, ~30 s
    python3 benchmarks/e2e/run.py --trace --ledger # + per-layer, + ledger
    python3 benchmarks/e2e/run.py --repeat-check   # two sets must agree
    python3 benchmarks/e2e/run.py --workload page1_hit --seed 3 \\
        --seconds 20 --trace 0                     # the driver's contract

With ``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cluster  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402
from harness import Folded, fold  # noqa: E402
from workloads import WORKLOADS, Bench, Budget, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
FETCHERS = 2
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: ``--seconds`` the traced run's fixed page counts are quoted at
TRACE_REFERENCE_SECONDS = 20


# ------------------------------------------------------------------ one run


async def set_up(
    workload: Workload, cores: cluster.Cores, *, fetchers: int,
    in_process: bool = False, tracer: Optional[tracing.Tracer] = None,
) -> Bench:
    bench = Bench(workload, fetchers)
    if tracer is not None:
        bench.database = tracer.wrap(
            tracing.DATABASE, tracing.DATABASE, bench.database
        )
    try:
        await bench.set_up(cores, in_process)
    except BaseException:
        await bench.tear_down()
        raise
    return bench


async def end_to_end(
    workload: Workload, seed: int, seconds: float, setups: int,
    cores: cluster.Cores,
) -> Tuple[Folded, List[str]]:
    """Set up *setups* times, measure on the last, fold the slices."""
    timed_setups = []
    for more_to_come in reversed(range(setups)):
        bench = await set_up(workload, cores, fetchers=FETCHERS)
        timed_setups.append(bench.setup)
        if more_to_come:
            await bench.tear_down()
    try:
        wire_before = await bench.wire_stats()
        await workload.run(bench, Budget(seconds=seconds), seed)
        wire = await bench.wire_stats()
        await bench.check_quiescent()
    finally:
        await bench.tear_down()
    folded = fold(bench.slices, timed_setups)
    pages = sum(s.pages for s in bench.slices)
    for name, counter in (
        ("store_gets_per_page", "cmd_get"),
        ("store_sets_per_page", "cmd_set"),
        ("evictions_per_page", "evictions"),
    ):
        folded.raw[name] = (wire[counter] - wire_before[counter]) / pages
    if bench.scale_to_wus:
        folded.raw["scale_to_wu"] = statistics.median(bench.scale_to_wus)
    return folded, bench.violations


async def traced(
    workload: Workload, seed: int, seconds: float, cores: cluster.Cores,
    trace_out: Optional[str],
) -> Tuple[Dict[str, Optional[float]], List[str], int, int]:
    """The per-layer numbers: the same key streams from one fetcher against
    in-process servers, once untraced and once under the shims."""
    pages = max(1, round(
        workload.trace_pages * seconds / TRACE_REFERENCE_SECONDS
    ))
    walls = []
    tracer = tracing.Tracer()
    for shimmed in (False, True):
        if shimmed:
            tracer.install()
        try:
            bench = await set_up(
                workload, cores, fetchers=1, in_process=True,
                tracer=tracer if shimmed else None,
            )
            try:
                pool_before = bench.web.transport_stats()["pool_waited"]
                await workload.run(bench, Budget(pages=pages), seed)
                pool_waited = (
                    bench.web.transport_stats()["pool_waited"] - pool_before
                )
                evictions = sum(
                    server.store.stats.evictions
                    for server in bench.local.servers
                )
                await bench.check_quiescent()
            finally:
                await bench.tear_down()
        finally:
            tracer.uninstall()
        walls.append(sum(sum(s.latencies) for s in bench.slices))
    fetched = sum(s.pages for s in bench.slices)
    metrics = tracing.per_layer(tracer, fetched, {
        "net.pool.waited": float(pool_waited),
        "cache.store.evictions_per_page": evictions / fetched,
        "net.webtier.scale_to_wu": (
            statistics.median(bench.scale_to_wus)
            if bench.scale_to_wus else 0.0
        ),
        "trace.overhead_frac": walls[1] / walls[0] - 1.0,
    })
    if trace_out:
        tracer.write(trace_out)
    return (
        metrics, bench.violations,
        sum(s.keys for s in bench.slices), sum(s.failed for s in bench.slices),
    )


# ---------------------------------------------------------------- reporting


def contract_line(correct: bool, attempted: int, failed: int,
                  metrics: Dict[str, Optional[float]]) -> str:
    """The driver's result object.  A layer whose entry points no longer
    resolve is reported as 0 calls and 0 busy time (and warned about)."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value,
                   "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    })


def print_metrics(title: str, metrics: Dict[str, Optional[float]],
                  units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>12s} {units.get(name, '')}")


def source_totals() -> Dict[str, int]:
    """Line totals of src/, tests/ and benchmarks/ — code size has a
    trajectory too."""
    return {
        top: sum(
            len(path.read_text(errors="replace").splitlines())
            for path in (ROOT / top).rglob("*.py")
        )
        for top in ("src", "tests", "benchmarks")
    }


def git_sha() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None  # the driver's checkout is not a git repository


def append_history(path: str, record: Dict) -> None:
    record = dict(record, time=time.time(), git_sha=git_sha(),
                  lines=source_totals())
    with open(path, "a") as out:
        out.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------- full sets


async def run_set(args, cores: cluster.Cores) -> Tuple[Dict, bool]:
    """Every workload once: end-to-end, and traced when asked."""
    report: Dict[str, Dict] = {}
    ok = True
    setups = 1 if args.quick else SETUPS
    for name, workload in WORKLOADS.items():
        folded, violations = await end_to_end(
            workload, args.seed, args.seconds, setups, cores
        )
        entry = {
            "end_to_end": folded.metrics, "raw": folded.raw,
            "attempted": folded.attempted, "failed": folded.failed,
            "failed_frac": folded.failed / folded.attempted,
            "unresolved": folded.unresolved,
        }
        print_metrics(f"\n== {name} (end to end, {FETCHERS} fetchers)",
                      folded.metrics, UNITS)
        print(f"  {'failed_frac':44s} {entry['failed_frac']:>12.6g} "
              f"({folded.failed} of {folded.attempted} keys)")
        print_metrics("  -- raw (this machine, this minute; not gated)",
                      folded.raw, {})
        if args.trace:
            layers, more, _, _ = await traced(
                workload, args.seed, args.seconds, cores,
                args.trace_out and f"{args.trace_out}.{name}.jsonl",
            )
            violations += more
            entry["per_layer"] = layers
            print_metrics("  -- per layer (traced, 1 fetcher, in-process "
                          "servers)", layers, UNITS)
        if folded.unresolved:
            print("  UNRESOLVED: the noise guard flagged more than half the "
                  "slices; timed figures use all of them")
        for violation in violations:
            print(f"  VIOLATION: {violation}")
        ok = ok and not violations and not folded.failed \
            and not folded.unresolved
        report[name] = entry
    if args.ledger:
        rows = await ledger.run(args.seed, cores, quick=args.quick)
        report["ledger"] = rows
        for name, row in rows.items():
            print_metrics(f"\n== ledger on {name}'s request mix", row, {})
        coverage = rows["page64_hit"]["ledger.coverage"]
        if not ledger.COVERAGE_OK[0] <= coverage <= ledger.COVERAGE_OK[1]:
            print(f"  VIOLATION: ledger.coverage {coverage:.2f} outside "
                  f"{ledger.COVERAGE_OK} on page64_hit")
            ok = False
    return report, ok


def disagreements(first: Dict, second: Dict) -> List[str]:
    """End-to-end metrics of two sets that differ by more than their own
    bound (either direction: the code did not change)."""
    out = []
    for name in WORKLOADS:
        for metric, bound in BOUNDS.items():
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            if abs(a - b) > bound * min(a, b):
                out.append(f"{name}.{metric}: {a:.6g} vs {b:.6g} "
                           f"(bound {bound:.0%})")
    return out


# ---------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and end with the driver's "
                             "JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json's run_seconds; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="report the traced per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced run's spans as JSON lines")
    parser.add_argument("--ledger", action="store_true",
                        help="add the isolated cost rows")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two sets; fail unless they agree within "
                             "each metric's bound")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: ~1/10 of the work, bounds not "
                             "enforced")
    parser.add_argument("--history", metavar="FILE",
                        help="append one JSON line per run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(SPEC["run_seconds"])
    return args


async def contract_run(args, cores: cluster.Cores) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, violations, attempted, failed = await traced(
            workload, args.seed, args.seconds, cores, args.trace_out
        )
    else:
        folded, violations = await end_to_end(
            workload, args.seed, args.seconds, SETUPS, cores
        )
        metrics, attempted, failed = (
            folded.metrics, folded.attempted, folded.failed
        )
        print_metrics("raw (not gated)", folded.raw, {})
        if folded.unresolved:
            print("UNRESOLVED: noise guard flagged more than half the slices")
    for violation in violations:
        print(f"VIOLATION: {violation}")
    if args.history:
        append_history(args.history, {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "metrics": metrics,
        })
    correct = not violations and failed == 0
    print(contract_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


async def report_run(args, cores: cluster.Cores) -> int:
    first, ok = await run_set(args, cores)
    if args.history:
        append_history(args.history, {"seed": args.seed, "set": first})
    if args.repeat_check:
        second, second_ok = await run_set(args, cores)
        if args.history:
            append_history(args.history, {"seed": args.seed, "set": second})
        ok = ok and second_ok
        differing = disagreements(first, second)
        print("\n== repeat check: " + (
            "both sets agree within every bound" if not differing
            else "sets disagree"
        ))
        for line in differing:
            print(f"  {line}")
        if differing and not args.quick:
            ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM must unwind through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cores = cluster.pin_client()
    runner = contract_run if args.workload else report_run
    return asyncio.run(runner(args, cores))


if __name__ == "__main__":
    sys.exit(main())
