"""Tests of the benchmark itself: schema, determinism, failure accounting.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from morseadic import dyadic  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload,trace", [("orbits", "0"), ("wide-read", "1")])
def test_output_schema(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    units = run.per_layer_units() if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_seed_gives_the_same_work(name):
    runs = []
    for _ in range(2):
        wl = workloads.build(name, 5)
        runs.append(run.measure(wl, max_ops=wl.cycle))
    a, b = runs
    assert a.attempted == b.attempted == a.verdicts.total()
    assert (a.verdicts, a.cases, a.steps, a.digits, a.checksum) == \
        (b.verdicts, b.cases, b.steps, b.digits, b.checksum)
    assert a.wrong_answers == 0


def test_wrong_answer_counts_as_failure(monkeypatch):
    real = dyadic.add_one
    monkeypatch.setattr(dyadic, "add_one", lambda x: real(real(x)))
    wl = workloads.build("wide-build", 2)
    result = run.measure(wl, max_ops=2 * len(wl.kinds))
    assert result.verdicts["wrong:add_one"] == 2
    assert result.failed / result.attempted > 0


def test_orbits_census_is_fixed_per_seed_and_answers_right():
    census = workloads.Orbits(7).census()
    assert census == workloads.Orbits(7).census()
    assert census["classify_orbit"].total() == workloads.Orbits.census_points
    assert census["coding"].total() == workloads.Orbits.census_windows
    known = {"ok", "error:BoundExceeded-generic", "error:BoundExceeded-exceptional",
             "error:MaxPoint"}
    assert set(census["classify_orbit"]) | set(census["coding"]) <= known


def test_conjugacy_oracle_agrees_with_integer_walks():
    for n in range(-200, 200):
        for t in (-150, -7, -1, 0, 1, 5, 90):
            walked = oracle.int_walk(n, t)
            closed = oracle.orbit_point(oracle.expand(n), t)
            assert (closed is None) == (walked is None)
            if walked is not None:
                assert oracle.value(*closed) == walked


def test_tracer_restores_every_binding():
    import morseadic

    def snapshot():
        spaces = [morseadic] + [getattr(morseadic, m) for m in tracing.LAYERS]
        spaces += [c for m in spaces[1:] for c in vars(m).values() if isinstance(c, type)]
        return {(id(s), k): v for s in spaces for k, v in list(vars(s).items())}

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    traced = dyadic.EpSeq.from_integer(6).digit(1)
    tracer.uninstall()
    assert traced == 1
    assert tracer.functions()["dyadic.EpSeq.digit"][0] == 1
    assert snapshot() == before
