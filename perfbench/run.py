"""Benchmark runner for slpforge.

    python3 perfbench/run.py --workload stagger_wide --seed 1 --seconds 30 --trace 0

Runs one workload in this process, on one thread, against the library
source in ``src/`` of the same checkout.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Lines before it are a readable report.

Phases of a run:

1. set-up, repeated ``SETUP_REPEATS`` times: import the package afresh
   and generate the workload's inputs from the seed.  ``setup_s`` is the
   median.  numpy is loaded once beforehand and is not counted.
2. one warm-up round, not timed.
3. timed rounds until ``--seconds`` have passed and at least
   ``MIN_ROUNDS`` rounds are done.  A round runs every instance once;
   each instance is checked against the reference before the next one
   starts, and only its library calls are timed.
4. a second process sets up once and runs one round on the same seed
   with another string-hash seed; its exact counts must equal ours.

Times are scaled to a reference machine speed.  On a shared host the
speed of this process swings by up to 2x over seconds, and a fixed
pure-Python loop swings with it, so each timing is multiplied by
``CAL_REFERENCE_S`` over the time of a fixed calibration loop measured
right before and right after it.  A value then reads as the time the
work takes on a machine where that loop takes ``CAL_REFERENCE_S``; the
report line also gives the raw figures.

Exit status is 0 whenever a result line was printed, even if ``correct``
is false; it is nonzero if the benchmark itself cannot run, for example
when the package source is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
# 4 rounds of at least 25 instances give at least 100 timings, so the
# 90th percentile always has at least 10 instances beyond it.
MIN_ROUNDS = 4
TAIL_PERCENTILE = 90
# The traced run reports no percentiles; two rounds still let it compare
# its counts across rounds.
TRACED_MIN_ROUNDS = 2
# A run must end within 180 s; the second process gets what is left of 170.
RUN_BUDGET_S = 170
STARTED = time.monotonic()
CAL_REFERENCE_S = 0.0015


def _calibration_kernel(n: int = 4000) -> int:
    """Fixed interpreter work: tuple keys, dict get/set, small-int arithmetic."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0) + i * 3 % 7
        acc += len(key)
    return acc


def calibrate() -> float:
    """Best of three timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def _scale(elapsed: float, before: float) -> float:
    """Seconds at the reference speed, from calibrations before and now."""
    return elapsed * CAL_REFERENCE_S / ((before + calibrate()) / 2)


def timed(fn, *args):
    """(result, raw seconds, seconds scaled to the reference speed)."""
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return result, elapsed, _scale(elapsed, before)


def _purge() -> None:
    for name in list(sys.modules):
        if name in ("slpforge", "perfbench") or name.startswith(("slpforge.", "perfbench.")):
            del sys.modules[name]


def setup(workload: str, seed: int, repeats: int):
    """Import the package and build the inputs; returns (module, instances, times).

    times holds one (raw, scaled) pair of seconds per repetition.
    """
    def once():
        module = importlib.import_module("perfbench.workloads")
        return module, module.WORKLOADS[workload](random.Random(seed), ROOT)

    times = []
    for _ in range(repeats):
        _purge()
        (module, instances), raw, scaled = timed(once)
        times.append((raw, scaled))
    return module, instances, times


class Round:
    """Timings, failures and summed exact counts of one pass over the instances."""

    def __init__(self):
        self.times: list[float] = []  # scaled to the reference speed
        self.raw_times: list[float] = []
        self.failures: list[str] = []
        self.counts: dict = {}
        self.profile_metrics: dict = {}
        self.profiled_s = 0.0  # self time of everything the profiler saw

    def add_counts(self, counts: dict, max_keys) -> None:
        for key, value in counts.items():
            if key in max_keys:
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


def _plain_call(name, fn, *args):
    return fn(*args)


def run_round(instances, wrong_type, max_keys, spans=None, profile=None) -> Round:
    result = Round()
    call = spans.call if spans is not None else _plain_call
    for index, inst in enumerate(instances):
        if spans is not None:
            spans.instance = index
        # An instance that raises is still timed, so every round keeps one
        # time per instance; the run goes on and the instance counts as failed.
        out = error = None
        before = calibrate()
        start = time.perf_counter()
        try:
            out = _profiled(profile, inst.work, call)
        except Exception:
            error = f"{inst.kind}: raised\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
        result.raw_times.append(elapsed)
        result.times.append(_scale(elapsed, before))
        try:
            if error is None:
                result.add_counts(inst.check(out), max_keys)
        except wrong_type as exc:
            error = f"{inst.kind}: wrong output: {exc}"
        except Exception:
            error = f"{inst.kind}: check raised\n{traceback.format_exc()}"
        if error is not None:
            result.failures.append(error)
    return result


def _profiled(profile, fn, *args):
    if profile is None:
        return fn(*args)
    profile.enable()
    try:
        return fn(*args)
    finally:
        profile.disable()


def _jsonable(counts: dict) -> dict:
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in sorted(counts.items())}


def _child_counts(args) -> tuple[dict | None, str]:
    """Exact counts of the same seed from a separate process."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 1000 + 1))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
           "--counts-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, RUN_BUDGET_S - (time.monotonic() - STARTED)))
    except subprocess.TimeoutExpired:
        return None, "second process timed out"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, f"second process failed: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _by_kind(instances, rounds) -> dict:
    """Median instance time per instance kind, in ms (failed instances omitted)."""
    samples: dict = {}
    for r in rounds:
        if not r.failures:
            for inst, t in zip(instances, r.times):
                samples.setdefault(inst.kind, []).append(t * 1000)
    return {kind: round(statistics.median(ts), 3) for kind, ts in samples.items()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true",
                        help="run one round and print its exact counts")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy  # noqa: F401  loaded before set-up so it is not timed

    repeats = 1 if args.counts_only else SETUP_REPEATS
    module, instances, setup_times = setup(args.workload, args.seed, repeats)
    from perfbench import tracing

    wrong = module.Wrong
    max_keys = tracing.MAX_COUNTS
    profiles = tracing.Profiles() if args.trace else None
    spans = tracing.Spans() if args.trace else None
    try:
        warm = None if args.counts_only else run_round(instances, wrong, max_keys)
        # The traced run measures one untraced round as the overhead baseline.
        plain = run_round(instances, wrong, max_keys) if args.trace and warm else warm
        rounds: list[Round] = []
        traced_walls: list[float] = []
        start = time.perf_counter()
        min_rounds = 1 if args.counts_only else TRACED_MIN_ROUNDS if args.trace else MIN_ROUNDS
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            if args.trace:
                profile = cProfile.Profile()
                r = run_round(instances, wrong, max_keys, spans, profile)
                r.profile_metrics, r.profiled_s = profiles.metrics(profile)
                traced_walls.append(sum(r.times))
            else:
                r = run_round(instances, wrong, max_keys)
            rounds.append(r)
    finally:
        shutil.rmtree(ROOT / "perfbench" / ".work" / f"readme-{os.getpid()}", ignore_errors=True)

    def exact(r: Round) -> dict:
        counts = dict(r.counts)
        counts.update({k: v for k, v in r.profile_metrics.items() if tracing.is_count(k)})
        return counts

    if args.counts_only:
        print(json.dumps({"counts": _jsonable(exact(rounds[0])),
                          "failed": len(rounds[0].failures)}))
        return 0

    all_rounds = [warm] + rounds + ([plain] if args.trace else [])
    attempted = sum(len(instances) for _ in all_rounds)
    failures = [f for r in all_rounds for f in r.failures]
    problems = []
    reference_counts = exact(rounds[0])
    if any(exact(r) != reference_counts for r in rounds) or any(
        r.counts != rounds[0].counts for r in (warm, plain)
    ):
        problems.append("exact counts differ between rounds of this process")
    child, why = _child_counts(args)
    if child is None:
        problems.append(why)
    elif child["counts"] != _jsonable(reference_counts):
        problems.append("exact counts differ from a second process on the same seed")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for problem in problems:
        print(f"NOT DETERMINISTIC {problem}", file=sys.stderr)

    times = [t for r in rounds for t in r.times]
    counts = rounds[0].counts
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "instances_per_round": len(instances),
        "samples": len(times),
        "error_rate": len(failures) / attempted,
        "median_ms_by_kind": _by_kind(instances, rounds),
        "problems": problems,
    }
    if args.trace:
        metrics = {}
        for name in rounds[0].profile_metrics:
            # counts are equal in every round (checked above); times take the median
            metrics[name] = (
                rounds[0].profile_metrics[name]
                if tracing.is_count(name)
                else statistics.median(r.profile_metrics[name] for r in rounds)
            )
        for name in tracing.CHECK_COUNTS:
            value = counts.get(name, 0)
            metrics[name] = float(value) if isinstance(value, Fraction) else value
        metrics[tracing.OVERHEAD] = statistics.median(traced_walls) / sum(plain.times)
        # Each layer's share of the profiled instance time; "other" is
        # builtins, numpy and the rest of the stdlib.
        profiled = statistics.median(r.profiled_s for r in rounds)
        shares = {
            module or "fractions": metrics[name] / profiled
            for name, module in tracing.SELF.items()
        }
        shares["other"] = 1 - sum(shares.values())
        report["self_share"] = {name: round(share, 4) for name, share in shares.items()}
        spans.write(ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            **_timing_metrics([scaled for _, scaled in setup_times], [r.times for r in rounds]),
            "emitted_steps": counts.get("emitted_steps", 0),
            "emitted_registers": counts.get("emitted_registers", 0),
            "peak_rss_mb": _peak_rss_mb(),
        }
        report["unscaled"] = _timing_metrics(
            [raw for raw, _ in setup_times], [r.raw_times for r in rounds]
        )
        report["tail_percentile"] = TAIL_PERCENTILE
        units = {
            "setup_s": "s", "instances_per_s": "1/s", "instance_p50_ms": "ms",
            "instance_tail_ms": "ms", "emitted_steps": "count",
            "emitted_registers": "count", "peak_rss_mb": "MB",
        }
    print(json.dumps(report))
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"error_rate = {report['error_rate']} (of {attempted} attempted)")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _timing_metrics(setup_times: list[float], per_round: list[list[float]]) -> dict:
    """Timing metrics from set-up times and per-round instance times.

    Throughput uses each instance's median time over the rounds, which
    drops the rounds in which the machine's speed changed while a long
    instance ran; the percentiles are over every sample.
    """
    times = [t for r in per_round for t in r]
    medians = [statistics.median(ts) for ts in zip(*per_round)]
    return {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": len(medians) / sum(medians),
        "instance_p50_ms": statistics.median(times) * 1000,
        "instance_tail_ms": _percentile(times, TAIL_PERCENTILE) * 1000,
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "textio.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
