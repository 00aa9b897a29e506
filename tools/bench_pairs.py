"""Alternating parent/change runs of the benchmark, summarized as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N --parent HEAD~1 \
        --claim identity_grid:instances_per_s --change "what the change does"

Run from anywhere inside the repository, after committing the change.
A --claim must name a workload and an end-to-end metric of
BENCHMARK.json; anything else is rejected before any run starts.
Each side is the committed files of its commit (--parent, and HEAD for
the change), extracted with ``git archive`` into a fresh temporary
directory that is removed afterwards, as the benchmark itself runs a
commit.  For every workload of BENCHMARK.json, pair i of 10 runs
``perfbench/run.py`` once per side for BENCHMARK.json's run_seconds with
seed 1000 * pr + 100 * (workload index) + i + 1, so every PR measures on
seeds of its own: the parent first when i is even, the change first when
i is odd.  The summary gives, per end-to-end metric and side, the median
and quartiles of the runs, the change's median over the parent's, the
pairs the change wins and ties, the parent's quartile distance and every
run's value.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
ORDER = "pair i runs the parent first when i is even and the change first when i is odd"
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs of one side"
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0"


def seeds_for(pr: int, workload_index: int) -> list[int]:
    """The seeds of the pairs of one workload: fresh for every PR."""
    return [1000 * pr + 100 * workload_index + i + 1 for i in range(PAIRS)]


def parse_run(stdout: str) -> dict:
    """The result line of one run, with the report's median_ms_by_kind added."""
    lines = [line for line in stdout.strip().splitlines() if line.startswith("{")]
    if not lines:
        raise ValueError("no result line in the run's output")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        report = json.loads(line)
        if "median_ms_by_kind" in report:
            result["median_ms_by_kind"] = report["median_ms_by_kind"]
    return result


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize_metric(spec: dict, parent_runs: list[float], change_runs: list[float]) -> dict:
    """One metric over the pairs; parent_runs[i] and change_runs[i] form pair i."""
    higher = spec["better"] == "higher"
    parent, change = _quartiles(parent_runs), _quartiles(change_runs)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent_runs, change_runs))
    ties = sum(c == p for p, c in zip(parent_runs, change_runs))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
        "change_wins": wins,
        "ties": ties,
        "parent_quartile_distance": parent["q3"] - parent["q1"],
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def _median_by_kind(runs: list[dict]) -> dict:
    samples: dict[str, list[float]] = {}
    for run in runs:
        for kind, ms in run.get("median_ms_by_kind", {}).items():
            samples.setdefault(kind, []).append(ms)
    return {kind: statistics.median(values) for kind, values in samples.items()}


def summarize_workload(
    specs: list[dict], seeds: list[int], parent: list[dict], change: list[dict]
) -> dict:
    """Summary of one workload from the parsed runs of each side, pair by pair."""
    runs = parent + change
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct_all": all(run["correct"] for run in runs),
        "failed_total": sum(run["failed"] for run in runs),
        "attempted_total": sum(run["attempted"] for run in runs),
        "metrics": {
            spec["name"]: summarize_metric(
                spec,
                [run["metrics"][spec["name"]]["value"] for run in parent],
                [run["metrics"][spec["name"]]["value"] for run in change],
            )
            for spec in specs
        },
        "median_ms_by_kind": {
            "parent": _median_by_kind(parent),
            "change": _median_by_kind(change),
        },
    }


def parse_claim(claim: str, spec: dict) -> dict:
    """The workload and end-to-end metric a --claim workload:metric names in spec."""
    workload, _, metric = claim.partition(":")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    if workload not in workloads or metric not in metrics:
        raise ValueError(
            f"--claim {claim!r} is not workload:metric with a workload of {workloads} "
            f"and an end-to-end metric of {metrics}"
        )
    return {"workload": workload, "metric": metric}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _extract(commit: str, dest: Path) -> None:
    """The committed files of commit, written under dest."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def bench(pr: int, spec: dict, sides: dict[str, Path]) -> dict:
    """Every workload of spec, in PAIRS alternating pairs over the two checkouts."""
    seconds = spec["run_seconds"]
    workloads = {}
    for index, workload in enumerate(w["name"] for w in spec["workloads"]):
        seeds = seeds_for(pr, index)
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(_run(sides[side], workload, seed, seconds))
                print(f"{workload} pair {i} {side} done", file=sys.stderr, flush=True)
        workloads[workload] = summarize_workload(
            spec["end_to_end"], seeds, runs["parent"], runs["change"]
        )
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="writes BENCH_<pr>.json at the root and picks the seeds")
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--claim", help="workload:metric the change claims a gain on")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        claimed = parse_claim(args.claim, spec) if args.claim else None
    except ValueError as exc:
        parser.error(str(exc))
    commits = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}

    tmpdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {side: tmpdir / side for side in commits}
        for side, commit in commits.items():
            _extract(commit, sides[side])
        workloads = bench(args.pr, spec, sides)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    summary = {
        "change": args.change,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "parent_src_tree": _git("rev-parse", f"{commits['parent']}:src"),
        "change_src_tree": _git("rev-parse", f"{commits['change']}:src"),
        "command": COMMAND.format(seconds=spec["run_seconds"]),
        "python": platform.python_version(),
        "order": ORDER,
        "quartiles": QUARTILES,
        "median_ms_by_kind": "per workload: median over the runs of one side of each run's median_ms_by_kind",
    }
    if claimed:
        summary["claimed"] = claimed
    summary["workloads"] = workloads
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
