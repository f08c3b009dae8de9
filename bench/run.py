#!/usr/bin/env python3
"""Benchmark of morseadic: one closed-loop client, four seeded workloads.

    python3 bench/run.py --workload {verify,orbits,wide-build,wide-read}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
src/.  Lines starting with '#' describe the run (environment, input
sizes, every metric with its unit, failures by reason); the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Full records go to bench/out/.

Untraced, ops run until --seconds of op time have passed and then to
the end of the current cycle of the workload's op mix, so every run
times whole cycles.  Traced, a fixed number of cycles (per 10 s of
--seconds) runs under the tracer and is replayed untraced to measure the
tracing overhead; the verify workload also times the 2^17 integer
points in [-2^16, 2^16) through four core functions, untraced.

Every reported op time is scaled to a reference host speed:
bench/speed.py runs a fixed kernel about every 25 ms, and each op's wall
time is multiplied by the kernel's reference time over its time around
that op (wide-build uses a kernel with a long-point working set).  This
removes most of the swings a shared host adds; the unscaled throughput
and the median scale are printed beside the metrics.
setup_s is the median CPU time of fresh interpreters doing the set-up,
unscaled: SETUP_LAUNCHES before the ops, one after each second of op
time, and SETUP_LAUNCHES after the ops.

An op is "ok" when the oracle (bench/oracle.py, which does not use the
package) agrees with its answer, "excluded" when it raised a documented
DomainError at an input the oracle puts outside the map's domain, and
failed otherwise: a wrong answer, or any exception (BoundExceeded is
reported apart, split by whether the point is GENERIC).  "correct" is
false when any op gave a wrong answer.

The orbits workload also runs a defect census, untimed, on fixed seeded
inputs (workloads.Orbits.census): the known defects of classify_orbit
and coding, counted by outcome on every run and printed as '# census'
lines.  Its classify_orbit outcomes enter
adic.classify_orbit.resolved_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 4  # before the ops, and again after them
BETWEEN_EVERY_NS = 1_000_000_000  # op time between set-up launches during the ops
SPEED_EVERY_NS = 25_000_000  # wall time between host speed samples
TRACE_TIME_CAP = 6  # a traced run stops after this many times --seconds of op time

FUNCTIONS = {
    "dyadic": ("EpSeq.from_integer", "EpSeq.from_rational", "EpSeq.parse",
               "EpSeq.digit", "EpSeq.is_cofinal", "EpSeq.to_rational", "add_one",
               "add_integer", "differentiate", "integrate", "shift_drop",
               "first_pair_index"),
    "adic": ("morse_successor", "morse_predecessor", "compare", "classify_orbit",
             "skew_step", "step_parity"),
    "arith": ("theta", "morse_int", "classify"),
    "substitution": ("coding", "desubstitute"),
    "solenoid": ("s_hat", "m_hat", "d_hat", "m_family", "q2_translate", "pi"),
    "verify": ("suite_diagrams", "suite_arithmetic", "suite_solenoid"),
    "cli": ("main", "parse_point"),
}
CORPUS = ("EpSeq.from_integer", "morse_successor", "add_one", "differentiate")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in FUNCTIONS.items():
        units |= {f"{layer}.calls": "count", f"{layer}.self_s": "s",
                  f"{layer}.self_share": "ratio"}
        for name in names:
            units |= {f"{layer}.{name}.calls": "count", f"{layer}.{name}.ns_per_call": "ns"}
    units |= {"adic.classify_orbit.resolved_ratio": "ratio",
              "substitution.desubstitute.parsed_ratio": "ratio",
              "verify.excluded_ratio": "ratio", "trace.slowdown": "x"}
    units |= {f"corpus.{name}.s": "s" for name in CORPUS}
    return units


@dataclass
class Run:
    verdicts: Counter = field(default_factory=Counter)
    # per-op records are arrays and counters, not lists of objects, so that
    # peak_rss_mb does not grow with the number of ops a run completes
    latencies: array = field(default_factory=lambda: array("d"))  # scaled ns per op
    busy_ns: float = 0  # scaled op time
    raw_busy_ns: int = 0  # op time as measured
    host: speed.SpeedLog = field(default_factory=speed.SpeedLog)
    cases: int = 0
    steps: int = 0
    digits: int = 0
    suite_cases: int = 0
    suite_excluded: int = 0
    checksum: int = 0
    wrong: list[str] = field(default_factory=list)  # first few wrong answers
    sizes: dict[str, Counter] = field(default_factory=lambda: {"digits": Counter(),
                                                                "steps": Counter()})

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(n for v, n in self.verdicts.items() if v not in ("ok", "excluded"))

    @property
    def wrong_answers(self) -> int:
        return sum(n for v, n in self.verdicts.items() if v.startswith("wrong:"))


def _fingerprint(result) -> str:
    if hasattr(result, "wall_time"):  # a SuiteReport: everything but the clock
        return f"{result.suite} {result.cases} {result.excluded} {len(result.failures)}"
    return repr(result)


def measure(wl, seconds: float | None = None, max_ops: int | None = None,
            spans: list | None = None, check: bool = True, between=None) -> Run:
    """Run ops in a closed loop: by op-time budget (whole cycles), or a
    fixed count (stopping early past TRACE_TIME_CAP * seconds).  Op
    latencies are scaled by the host speed sampled around them.
    between(), if given, is called outside the op time after each
    BETWEEN_EVERY_NS of op time."""
    from workloads import verdict_for_error

    run = Run(host=speed.SpeedLog(wl.speed_reference))
    raw = array("q")
    budget = (seconds or 0) * 1e9
    last_sample = 0
    next_between = BETWEEN_EVERY_NS
    i = 0
    while True:
        if between is not None and run.raw_busy_ns >= next_between:
            between()
            next_between += BETWEEN_EVERY_NS
        if max_ops is None:
            if run.raw_busy_ns >= budget and i % wl.cycle == 0:
                break
        elif i >= max_ops or (seconds and run.raw_busy_ns >= TRACE_TIME_CAP * budget):
            break
        if perf_counter_ns() - last_sample >= SPEED_EVERY_NS:
            run.host.take(i)
            last_sample = perf_counter_ns()
        op = wl.op(i)
        result = None
        t0 = perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # every failure is counted, none stops the run
            t1 = perf_counter_ns()
            verdict = verdict_for_error(op, exc)
        else:
            t1 = perf_counter_ns()
            verdict = "ok"
            note = op.check(result) if check else None
            if note is not None:
                verdict = "wrong:" + op.kind
                if len(run.wrong) < 5:
                    run.wrong.append(f"op {i} {op.kind}: {note}")
        raw.append(t1 - t0)
        run.raw_busy_ns += t1 - t0
        run.verdicts[verdict] += 1
        run.sizes["digits"][op.digits] += 1
        run.sizes["steps"][op.steps] += 1
        if spans is not None:
            spans.append((i, op.kind, t0, t1, verdict))
        if check:
            run.checksum = zlib.crc32(f"{i} {verdict} {_fingerprint(result)}".encode(),
                                      run.checksum)
        if verdict == "ok":
            run.steps += op.steps
            run.digits += op.digits
            if op.cases:
                run.cases += op.cases(result)
            if hasattr(result, "wall_time"):
                run.suite_cases += result.cases
                run.suite_excluded += result.excluded
        i += 1
    run.host.take(i)
    run.latencies = array("d", (ns * run.host.scale(k) for k, ns in enumerate(raw)))
    run.busy_ns = sum(run.latencies)
    return run


def setup_times(wl, launches: int) -> list[float]:
    """CPU times (user plus system) of fresh interpreters running
    bench/probe.py.  CPU time, not wall time: on a shared host the wall
    time of a short process swings several times more."""
    spec = json.dumps({"points": wl.points if wl.pairs else [], "pairs": wl.pairs})
    times = []
    for _ in range(launches):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, str(HERE / "probe.py")], input=spec, text=True,
                       check=True, capture_output=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return times


def corpus_seconds() -> tuple[dict[str, float], int]:
    """The integer corpus through four core functions, untraced, in
    chunks; returns scaled seconds per function and the count of wrong
    values."""
    import oracle
    from morseadic import adic, dyadic

    totals = dict.fromkeys(CORPUS, 0)
    bad = 0
    maps = (adic.morse_successor, dyadic.add_one, dyadic.differentiate)
    for start in range(-(1 << 16), 1 << 16, 1 << 13):
        ns = range(start, start + (1 << 13))
        before = speed.sample()
        t0 = perf_counter_ns()
        points = [dyadic.EpSeq.from_integer(n) for n in ns]
        chunk = {CORPUS[0]: perf_counter_ns() - t0}
        outs = []
        for name, fn in zip(CORPUS[1:], maps):
            t0 = perf_counter_ns()
            outs.append([fn(x) for x in points])
            chunk[name] = perf_counter_ns() - t0
        factor = 2 * speed.REFERENCE_NS / (before + speed.sample())
        for name, ns_taken in chunk.items():
            totals[name] += ns_taken * factor
        for n, x, s, one, d in zip(ns, points, *outs):
            got = [oracle.seq_value(v) for v in (x, s, one, d)]
            bad += got != [n, oracle.morse_int(n), n + 1, n ^ (n >> 1)]
    return {k: v / 1e9 for k, v in totals.items()}, bad


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():  # never ask git about directories above the checkout
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "morseadic").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }


def _spread(counts: Counter) -> dict:
    values = sorted(counts)
    below, half, median = 0, counts.total() / 2, values[0]
    for v in values:  # the lower median
        below += counts[v]
        median = v
        if below >= half:
            break
    return {"min": values[0], "median": median, "max": values[-1]}


def end_to_end(wl, run: Run, setup_s: float) -> tuple[dict, dict]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sorting
    secs = run.busy_ns / 1e9
    deciles = statistics.quantiles(run.latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": run.attempted / secs,
        "op_p50_ms": deciles[4] / 1e6,
        "op_p90_ms": deciles[8] / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "fail_ratio": (run.failed / run.attempted, f"of {run.attempted} ops"),
        f"{wl.rate}_per_s": (getattr(run, wl.rate) / secs, "1/s"),
        "host_scale": (run.host.overall(), "x"),
        "ops_per_s_unscaled": (run.attempted / (run.raw_busy_ns / 1e9), "1/s"),
    }
    return metrics, extra


def per_layer(tracer, traced: Run, plain: Run, corpus: dict[str, float],
              census: dict[str, Counter]) -> dict:
    funcs = tracer.functions()
    scale = traced.host.overall()
    metrics = {}
    for layer, names in FUNCTIONS.items():
        mine = [rec for fid, rec in funcs.items() if tracer.layer_of[fid] == layer]
        self_ns = sum(rec[2] for rec in mine)
        metrics[f"{layer}.calls"] = sum(rec[0] for rec in mine)
        metrics[f"{layer}.self_s"] = self_ns * scale / 1e9
        metrics[f"{layer}.self_share"] = self_ns / traced.raw_busy_ns
        for name in names:
            calls, total, _, _ = funcs.get(f"{layer}.{name}", (0, 0, 0, 0))
            metrics[f"{layer}.{name}.calls"] = calls
            metrics[f"{layer}.{name}.ns_per_call"] = total * scale / calls if calls else 0.0

    def answered(fid):
        calls, _, _, raised = funcs.get(fid, (0, 0, 0, 0))
        return (calls - raised) / calls if calls else 0.0

    calls, _, _, raised = funcs.get("adic.classify_orbit", (0, 0, 0, 0))
    counted = census.get("classify_orbit", Counter())  # untimed, outside the tracer
    total = calls + counted.total()
    resolved = calls - raised + counted["ok"]
    metrics["adic.classify_orbit.resolved_ratio"] = resolved / total if total else 0.0
    metrics["substitution.desubstitute.parsed_ratio"] = answered("substitution.desubstitute")
    checked = traced.suite_cases + traced.suite_excluded
    metrics["verify.excluded_ratio"] = traced.suite_excluded / checked if checked else 0.0
    metrics["trace.slowdown"] = traced.busy_ns / plain.busy_ns
    for name in CORPUS:
        metrics[f"corpus.{name}.s"] = corpus.get(name, 0.0)
    return metrics


def _emit(args, run: Run, metrics: dict, units: dict, extra: dict, record: dict) -> None:
    census = record["census"]
    correct = (run.wrong_answers == 0 and record.get("corpus_wrong", 0) == 0
               and not any(c["wrong"] for c in census.values()))
    print(f"# env {json.dumps(record['env'])}")
    print(f"# sizes: {json.dumps(record['sizes'])}")
    print(f"# ops attempted={run.attempted} ok={run.verdicts['ok']}"
          f" excluded={run.verdicts['excluded']} failed={run.failed}")
    for verdict, n in sorted(run.verdicts.items()):
        if verdict not in ("ok", "excluded"):
            print(f"#   failed {verdict}: {n}")
    for note in run.wrong:
        print(f"#   wrong answer: {note}")
    for name, counted in census.items():
        tally = " ".join(f"{v}={n}" for v, n in sorted(counted.items()))
        print(f"# census {name}: {counted.total()} untimed calls, {tally}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# no layer has a queue: the library is single-threaded, so no wait time is recorded")
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record | {"metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "orbits", "wide-build", "wide-read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morseadic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'morseadic'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.build(args.workload, args.seed)
    census = wl.census() if isinstance(wl, workloads.Orbits) else {}
    record = {"env": environment(args), "census": census}
    if not args.trace:
        # set-up launches before, between and after the ops, so that their
        # median spans the run rather than one phase of the host's load
        times = setup_times(wl, SETUP_LAUNCHES)
        run = measure(wl, seconds=args.seconds,
                      between=lambda: times.extend(setup_times(wl, 1)))
        setup_s = statistics.median(times + setup_times(wl, SETUP_LAUNCHES))
        metrics, extra = end_to_end(wl, run, setup_s)
        units = END_TO_END
    else:
        from tracing import Tracer

        corpus, corpus_wrong = corpus_seconds() if args.workload == "verify" else ({}, 0)
        record["corpus_wrong"] = corpus_wrong
        count = wl.cycle * max(1, round(wl.trace_cycles * args.seconds / 10))
        tracer, spans = Tracer(), []
        tracer.install()
        try:
            run = measure(wl, seconds=args.seconds, max_ops=count, spans=spans)
        finally:
            tracer.uninstall()
        plain = measure(wl, max_ops=run.attempted, check=False)
        metrics = per_layer(tracer, run, plain, corpus, census)
        units = per_layer_units()
        extra = {"traced_ops_per_s": (run.attempted / (run.busy_ns / 1e9), "1/s"),
                 "untraced_ops_per_s": (plain.attempted / (plain.busy_ns / 1e9), "1/s")}
        base = spans[0][2] if spans else 0
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "note": "single-threaded library: no queues, no wait time",
            "spans": [[i, kind, t0 - base, t1 - base, v] for i, kind, t0, t1, v in spans],
            "aggregates": tracer.aggregates(),
        }))
    record |= {
        "attempted": run.attempted, "failed": run.failed, "verdicts": dict(run.verdicts),
        "wrong": run.wrong, "checksum": run.checksum,
        "sizes": {k: _spread(v) for k, v in run.sizes.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    _emit(args, run, metrics, units, extra, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
