"""The pair runner's summary, on fixed numbers (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def _run(seed, side, ops, p50, wall=20.0, failed=0, census=()):
    return {"seed": seed, "side": side, "wall_s": wall, "census": list(census),
            "result": {"correct": True, "attempted": 100, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                   "op_p50_ms": {"value": p50, "unit": "ms"}}}}


def _runs(parent_ops, change_ops):
    runs = []
    for seed, (a, b) in enumerate(zip(parent_ops, change_ops), start=1):
        runs.append(_run(seed, "parent", a, 2.0, census=["# census x: 1 untimed calls, ok=1"]))
        runs.append(_run(seed, "change", b, 1.0 if seed != 2 else 2.0, wall=40.0,
                         census=["# census x: 1 untimed calls, ok=1"]))
    return runs


class TestSummarize:
    def test_quartiles_and_pairs(self):
        entry = bench_pairs.summarize(_runs([100, 110, 90, 105, 95], [300, 100, 310, 320, 330]),
                                      BETTER, 15)
        assert entry["seeds"] == [1, 2, 3, 4, 5]
        assert entry["runs_per_side"] == 5
        assert entry["parent"]["ops_per_s"] == {"q1": 95, "median": 100, "q3": 105}
        assert entry["change"]["ops_per_s"] == {"q1": 300, "median": 310, "q3": 320}
        # 110 -> 100 loses; the p50 tie on seed 2 counts for neither side
        assert entry["change_better_in_pairs"] == {"ops_per_s": "4 of 5",
                                                   "op_p50_ms": "4 of 5"}
        assert entry["parent"]["run_wall_s"] == [20.0] * 5
        assert entry["change"]["run_wall_s"] == [40.0] * 5
        assert (entry["change"]["failed"], entry["change"]["attempted"]) == (0, 500)
        assert entry["change"]["correct"] is True
        assert entry["census"] == [["# census x: 1 untimed calls, ok=1"]]

    def test_claim_needs_nine_of_ten_and_a_gap_past_the_spread(self):
        parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
        won = bench_pairs.summarize(_runs(parent, [v * 3 for v in parent]), BETTER, 15)
        got = bench_pairs.claim("orbits", won, "ops_per_s", "higher")
        assert got["pairs_won"] == "10 of 10"
        assert got["met"] is True
        assert got["parent_iqr"] == pytest.approx(1.5)

        one_lost = [v * 3 for v in parent[:8]] + [90, 90]
        lost = bench_pairs.summarize(_runs(parent, one_lost), BETTER, 15)
        assert bench_pairs.claim("orbits", lost, "ops_per_s", "higher")["met"] is False

        close = bench_pairs.summarize(_runs(parent, [v + 1 for v in parent]), BETTER, 15)
        assert close["change_better_in_pairs"]["ops_per_s"] == "10 of 10"
        assert bench_pairs.claim("orbits", close, "ops_per_s", "higher")["met"] is False

    def test_lower_is_better(self):
        entry = bench_pairs.summarize(_runs([1] * 10, [1] * 10), BETTER, 15)
        got = bench_pairs.claim("orbits", entry, "op_p50_ms", "lower")
        # seed 2's tie leaves 9 of 10; p50 2.0 -> 1.0 clears a spread of 0
        assert got["pairs_won"] == "9 of 10"
        assert got["met"] is True
