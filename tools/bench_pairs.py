#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B [--claim METRIC] --out BENCH_N.json

For each seed in A..B, runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, one run at a time, with T
the `run_seconds` of the change's BENCHMARK.json. The parent runs first
on the first seed and the order alternates from there. Each run's last
stdout line is the benchmark's JSON summary; its wall time and its
'# census' lines are kept beside it.

The output file gets one entry under "workloads" per workload: each
side's quartiles of every end-to-end metric of BENCHMARK.json, the run
wall times, failed and attempted op counts, and in how many pairs the
change read better (ties count for neither). An existing output file is
updated in place, so one file can collect every workload. With --claim,
"claimed_gain" records whether METRIC on W met the rule: better in at
least nine tenths of the pairs, and a median gap wider than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ORDER = "alternating: the parent ran first on every other seed, starting with the first"
RULE = ("change better in at least nine tenths of the alternating pairs, "
        "and the median gap wider than the parent's quartile spread")
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summarize(runs: list[dict], better: dict[str, str], run_seconds: float) -> dict:
    """One workload's entry from its runs.

    Each run is {"seed", "side", "wall_s", "census", "result"}, where
    "result" is the benchmark's JSON summary line; `better` maps each
    end-to-end metric to "higher" or "lower".
    """
    seeds = sorted({r["seed"] for r in runs})
    by = {(r["seed"], r["side"]): r for r in runs}
    entry: dict = {"seeds": seeds, "runs_per_side": len(seeds),
                   "run_seconds": run_seconds, "order": ORDER}
    for side in SIDES:
        mine = [by[s, side] for s in seeds]
        entry[side] = {name: quartiles([r["result"]["metrics"][name]["value"] for r in mine])
                       for name in better}
        entry[side] |= {
            "run_wall_s": [round(r["wall_s"], 1) for r in mine],
            "correct": all(r["result"]["correct"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine),
            "attempted": sum(r["result"]["attempted"] for r in mine),
        }
    entry["change_better_in_pairs"] = {
        name: f"{pairs_won(by, seeds, name, way)} of {len(seeds)}"
        for name, way in better.items()}
    census = []
    for r in runs:
        if r["census"] and r["census"] not in census:
            census.append(r["census"])
    if census:
        entry["census"] = census
    return entry


def pairs_won(by: dict, seeds: list[int], name: str, way: str) -> int:
    sign = 1 if way == "higher" else -1
    return sum(
        1 for s in seeds
        if sign * (by[s, "change"]["result"]["metrics"][name]["value"]
                   - by[s, "parent"]["result"]["metrics"][name]["value"]) > 0)


def claim(workload: str, entry: dict, metric: str, way: str) -> dict:
    """Whether `metric` on `workload` met the rule for a claimed gain."""
    won = int(entry["change_better_in_pairs"][metric].split()[0])
    parent, change = entry["parent"][metric], entry["change"][metric]
    iqr = parent["q3"] - parent["q1"]
    gap = change["median"] - parent["median"]
    if way == "lower":
        gap = -gap
    return {"workload": workload, "metric": metric, "rule": RULE,
            "pairs_won": entry["change_better_in_pairs"][metric],
            "parent_median": parent["median"], "change_median": change["median"],
            "parent_iqr": round(iqr, 5),
            "met": won * 10 >= 9 * entry["runs_per_side"] and gap > iqr}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    return {"seed": seed, "wall_s": wall_s, "result": json.loads(lines[-1]),
            "census": [line for line in lines if line.startswith("# census")]}


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "cpu_model": model}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B")
    parser.add_argument("--claim", help="end-to-end metric claimed to improve")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim must be one of {sorted(better)}")
    lo, hi = (int(s) for s in args.seeds.split("-"))
    runs = []
    for i, seed in enumerate(range(lo, hi + 1)):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = run_once(getattr(args, side), args.workload, seed, spec["run_seconds"])
            runs.append(run | {"side": side})
            print(f"{args.workload} seed {seed} {side}: {run['wall_s']:.1f} s, "
                  f"{json.dumps(run['result']['metrics'])}", flush=True)

    entry = summarize(runs, better, spec["run_seconds"])
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("command", f"python3 bench/run.py --workload W --seed S "
                              f"--seconds {spec['run_seconds']} --trace 0")
    out["parent_commit"] = commit(args.parent)
    out["change_commit"] = commit(args.change)
    if args.claim is not None:
        out["claimed_gain"] = claim(args.workload, entry, args.claim, better[args.claim])
    out.setdefault("workloads", {})[args.workload] = entry
    out["environment"] = environment()
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
