"""Alternating base / change pairs of the end-to-end benchmark.

A single run of ``benchmarks/e2e/run.py`` wanders +-15 % with the host, so
a performance claim rests on *pairs*: the parent commit and this tree
measured back to back, with the order swapped every other pair, compared
by median, quartiles and a sign count.  This tool is that loop::

    python benchmarks/ab.py --base <sha>                  # all workloads
    python benchmarks/ab.py --base <sha> --workload page64_hit --pairs 10
    make bench-ab BASE=<sha> [WORKLOAD=page64_hit PAIRS=10]

BASE is exported (``git archive``) into a temporary directory, so each
side runs its *own* ``benchmarks/e2e/run.py --workload W --seed i`` —
pair ``i`` uses seed ``i``, change first on even seeds — and nothing is
left behind in ``.git``.  Per workload and end-to-end metric it prints
both medians with their quartiles, the change's k/N sign count (ties
count for neither side) and the keys that failed; ``*`` marks a
difference that wins at least nine tenths of the pairs *and* exceeds the
base's own inter-quartile spread (the rule a claim must meet).  Both
sides are appended to ``BENCH_history.jsonl``.  Exits non-zero when any
run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
SIDES = ("base", "change")

#: one run: what the benchmark's last output line says
Run = Dict[str, object]


def export(base: str, tree: Path) -> None:
    """Unpack commit *base* into *tree*."""
    with subprocess.Popen(
        ["git", "archive", "--format=tar", base], cwd=ROOT,
        stdout=subprocess.PIPE,
    ) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(tree)
    if archive.returncode:
        raise SystemExit(f"git archive {base} failed")


def run_once(
    tree: Path, workload: str, seed: int, seconds: Optional[float]
) -> Run:
    """One ``run.py --workload`` in *tree*; its contract line, parsed.  A
    run that printed none counts as incorrect."""
    command = [sys.executable, "benchmarks/e2e/run.py",
               "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    # Each tree must import its own ``repro``, never the caller's.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sign_count(
    base: Sequence[float], change: Sequence[float], better: str
) -> int:
    """Pairs the change won (ties count for neither side)."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def compare(
    base: Sequence[float], change: Sequence[float], better: str
) -> Dict[str, object]:
    """One table row: both sides' quartiles, the relative move of the
    median, the sign count, and whether the difference is claimable."""
    q1, before, q3 = quartiles(base)
    changed = quartiles(change)
    after = changed[1]
    wins = sign_count(base, change, better)
    losses = sign_count(change, base, better)
    return {
        "base": (q1, before, q3), "change": changed,
        "delta": (after - before) / before if before else 0.0,
        "wins": wins, "pairs": len(base),
        "clear": (
            10 * max(wins, losses) >= 9 * len(base)
            and abs(after - before) > q3 - q1
        ),
    }


def values_of(runs: Sequence[Run], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run["metrics"]]


def report(workload: str, runs: Dict[str, List[Run]]) -> None:
    failed = " / ".join(
        f"{side} {sum(run['failed'] for run in runs[side])}" for side in SIDES
    )
    print(f"\n== {workload} ({len(runs['base'])} pairs; failed keys: {failed})")
    print(f"  {'metric':24s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'delta':>8s}  change wins")
    for metric, better in BETTER.items():
        base, change = (values_of(runs[side], metric) for side in SIDES)
        if not base or len(base) != len(change):
            print(f"  {metric:24s} (missing from a run)")
            continue
        row = compare(base, change, better)
        cells = [
            f"{median:.5g} [{q1:.5g}, {q3:.5g}]"
            for q1, median, q3 in (row["base"], row["change"])
        ]
        print(f"  {metric:24s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{row['delta']:>+8.1%}  {row['wins']}/{row['pairs']}"
              + (" *" if row["clear"] else ""))


def source_totals(tree: Path) -> Dict[str, int]:
    return {
        top: sum(
            len(path.read_text(errors="replace").splitlines())
            for path in (tree / top).rglob("*.py")
        )
        for top in ("src", "tests", "benchmarks")
    }


def history_row(
    side: str, tree: Path, shas: Dict[str, str], args,
    runs: Dict[str, Dict[str, List[Run]]],
) -> Dict[str, object]:
    """One ``BENCH_history.jsonl`` line for one side: medians where the
    plain rows keep a single run's metrics, every run's value beside
    them."""
    other = SIDES[1 - SIDES.index(side)]
    entries = {}
    for workload, by_side in runs.items():
        mine = by_side[side]
        series = {m: values_of(mine, m) for m in BETTER}
        entries[workload] = {
            "end_to_end": {
                m: statistics.median(v) for m, v in series.items() if v
            },
            "runs": series,
            "attempted": sum(run["attempted"] for run in mine),
            "failed": sum(run["failed"] for run in mine),
        }
    return {
        "ab": side, "against": shas[other], "pairs": args.pairs,
        "seconds": args.seconds or SPEC["run_seconds"], "set": entries,
        "time": time.time(),
        "git_sha": shas[side], "lines": source_totals(tree),
    }


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare this tree against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: the "
                             "benchmark's own)")
    parser.add_argument("--history", default=str(ROOT / "BENCH_history.jsonl"),
                        help="file both sides are appended to")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    shas = {
        "base": git("rev-parse", args.base), "change": git("rev-parse", "HEAD"),
    }
    if git("status", "--porcelain", "--untracked-files=no"):
        shas["change"] += "+dirty"
    scratch = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    trees = {"base": scratch, "change": ROOT}
    runs: Dict[str, Dict[str, List[Run]]] = {
        workload: {side: [] for side in SIDES}
        for workload in args.workload or WORKLOADS
    }
    incorrect = []
    try:
        export(shas["base"], scratch)
        for seed in range(args.pairs):
            order = SIDES[::-1] if seed % 2 == 0 else SIDES
            for workload, by_side in runs.items():
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds)
                    by_side[side].append(run)
                    cost = run["metrics"].get("page_cost_wu", {}).get("value")
                    print(f"pair {seed} {workload} {side}: page_cost_wu "
                          f"{cost}", flush=True)
                    if not run["correct"]:
                        incorrect.append(f"{workload} seed {seed} {side}")
        for workload, by_side in runs.items():
            report(workload, by_side)
        with open(args.history, "a") as out:
            for side in SIDES:
                row = history_row(side, trees[side], shas, args, runs)
                out.write(json.dumps(row) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for run in incorrect:
        print(f"INCORRECT: {run}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
