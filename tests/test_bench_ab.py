"""The A/B tool's arithmetic and run order (``benchmarks/ab.py``), without
running the benchmark: the statistics on lists, ``run_once`` against a
stand-in ``run.py``, and ``main`` with the export and the runs replaced."""

import json

import pytest

from benchmarks import ab

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


class TestCompare:
    def test_a_gain_in_every_pair_beyond_the_bases_spread_is_clear(self):
        row = ab.compare(BASE, [v - 1.0 for v in BASE], "lower")
        assert row["wins"] == 10 and row["pairs"] == 10 and row["clear"]
        assert row["delta"] == pytest.approx(-0.1, abs=0.005)
        q1, median, q3 = row["base"]
        assert q1 <= median <= q3 and median == pytest.approx(10.05)

    def test_eight_of_ten_is_not_clear_and_ties_count_for_neither(self):
        change = [v - 1.0 for v in BASE]
        change[0], change[1] = BASE[0], BASE[1] + 1.0   # a tie and a loss
        row = ab.compare(BASE, change, "lower")
        assert row["wins"] == 8 and not row["clear"]

    def test_nine_of_ten_inside_the_bases_spread_is_not_clear(self):
        change = [v - 0.01 for v in BASE]
        change[0] = BASE[0] + 0.01
        row = ab.compare(BASE, change, "lower")
        assert row["wins"] == 9 and not row["clear"]

    def test_a_regression_is_flagged_the_same_way(self):
        row = ab.compare(BASE, [v + 1.0 for v in BASE], "lower")
        assert row["wins"] == 0 and row["clear"] and row["delta"] > 0

    def test_higher_is_better_counts_the_other_way(self):
        assert ab.sign_count([1.0, 2.0], [2.0, 1.0], "higher") == 1
        assert ab.compare(BASE, [v + 1.0 for v in BASE], "higher")["wins"] == 10

    def test_a_single_pair_has_degenerate_quartiles(self):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


STAND_IN = """
import json, os, sys
args = sys.argv[1:]
if "--seed" in args and args[args.index("--seed") + 1] == "7":
    print("Traceback: no contract line today")
    sys.exit(1)
print("raw (not gated)")
print(json.dumps({"correct": True, "attempted": 64, "failed": 0, "metrics": {
    "page_cost_wu": {"value": float(len(args)), "unit": "wu"},
    "pythonpath": {"value": float("PYTHONPATH" in os.environ), "unit": ""},
}}))
"""


def test_run_once_reads_the_contract_line_of_the_trees_own_run_py(
    tmp_path, monkeypatch
):
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "benchmarks" / "e2e" / "run.py").write_text(STAND_IN)
    monkeypatch.setenv("PYTHONPATH", "/somebody/elses/src")
    run = ab.run_once(tmp_path, "page64_hit", 3, None)
    assert run["correct"] and run["attempted"] == 64
    assert run["metrics"]["page_cost_wu"]["value"] == 4   # no --seconds
    assert run["metrics"]["pythonpath"]["value"] == 0
    run = ab.run_once(tmp_path, "page64_hit", 3, 2.5)
    assert run["metrics"]["page_cost_wu"]["value"] == 6
    assert not ab.run_once(tmp_path, "page64_hit", 7, None)["correct"]


def test_main_alternates_the_sides_and_appends_both_to_the_history(
    tmp_path, monkeypatch, capsys
):
    order = []

    def run_once(tree, workload, seed, seconds):
        side = "change" if tree == ab.ROOT else "base"
        order.append((seed, workload, side))
        cost = 10.0 + seed / 100 - (side == "change")
        return {
            "correct": not (side == "base" and seed == 2 and
                            workload == "page1_hit"),
            "attempted": 64, "failed": 0,
            "metrics": {name: {"value": cost, "unit": "wu"}
                        for name in ab.BETTER},
        }

    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(ab, "export", lambda base, tree: None)
    monkeypatch.setattr(
        ab, "git", lambda *args: "" if args[0] == "status" else "f" * 40
    )
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(ab.tempfile, "tempdir", None)
    history = tmp_path / "history.jsonl"
    status = ab.main([
        "--base", "HEAD~1", "--pairs", "4", "--history", str(history),
        "--workload", "page64_hit", "--workload", "page1_hit",
    ])
    assert status == 1   # one run was incorrect
    assert [(seed, side) for seed, workload, side in order
            if workload == "page64_hit"] == [
        (0, "change"), (0, "base"), (1, "base"), (1, "change"),
        (2, "change"), (2, "base"), (3, "base"), (3, "change"),
    ]
    out = capsys.readouterr().out
    assert "== page64_hit (4 pairs; failed keys: base 0 / change 0)" in out
    assert "4/4 *" in out and "INCORRECT: page1_hit seed 2 base" in out
    base, change = map(json.loads, history.read_text().splitlines())
    assert (base["ab"], change["ab"]) == ("base", "change")
    assert base["against"] == change["git_sha"] and base["pairs"] == 4
    entry = change["set"]["page64_hit"]
    assert entry["runs"]["page_cost_wu"] == [9.0, 9.01, 9.02, 9.03]
    assert entry["end_to_end"]["page_cost_wu"] == pytest.approx(9.015)
    assert entry["attempted"] == 256 and entry["failed"] == 0
    assert set(change["lines"]) == {"src", "tests", "benchmarks"}
    assert not list(tmp_path.glob("bench-ab-*"))   # the export is removed
