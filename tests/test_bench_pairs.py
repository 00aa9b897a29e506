"""The pairs harness's aggregation, on canned benchmark output."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "emitted_steps", "unit": "count", "better": "lower", "bound": 0.1},
]


def run_output(rate, steps, kinds, correct=True, failed=0, attempted=100):
    """What perfbench/run.py prints: a report line, metric lines, the result line."""
    report = {"workload": "w", "median_ms_by_kind": kinds, "problems": []}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "instances_per_s": {"value": rate, "unit": "1/s"},
            "emitted_steps": {"value": steps, "unit": "count"},
        },
    }
    return "\n".join([
        "set-up done",
        json.dumps(report),
        f"instances_per_s = {rate} 1/s",
        f"emitted_steps = {steps} count",
        "error_rate = 0.0 (of 100 attempted)",
        json.dumps(result),
    ])


def test_parse_run_reads_the_result_and_the_kinds():
    run = bench_pairs.parse_run(run_output(12.5, 40, {"a": 1.0}))
    assert run["metrics"]["instances_per_s"]["value"] == 12.5
    assert run["median_ms_by_kind"] == {"a": 1.0}
    with pytest.raises(ValueError):
        bench_pairs.parse_run("no json here\n")


def test_workload_summary_of_canned_pairs():
    parent_rates, change_rates = [10, 12, 11, 9, 13], [14, 11, 15, 16, 15]
    parent = [
        bench_pairs.parse_run(run_output(r, 40, {"a": 2.0 + i}))
        for i, r in enumerate(parent_rates)
    ]
    change = [
        bench_pairs.parse_run(run_output(r, 40 - (i == 0), {"a": 1.0}, failed=i == 4))
        for i, r in enumerate(change_rates)
    ]
    out = bench_pairs.summarize_workload(SPECS, [1, 2, 3, 4, 5], parent, change)
    assert out["pairs"] == 5 and out["seeds"] == [1, 2, 3, 4, 5]
    assert out["correct_all"] and out["failed_total"] == 1
    assert out["attempted_total"] == 1000

    rate = out["metrics"]["instances_per_s"]
    q1, median, q3 = statistics.quantiles(parent_rates, n=4, method="inclusive")
    assert rate["parent"] == {"median": median, "q1": q1, "q3": q3} == {
        "median": 11, "q1": 10, "q3": 12
    }
    assert rate["change"]["median"] == 15
    assert rate["change_over_parent"] == 15 / 11
    # Pair 1 (12 vs 11) is the parent's; the other four are the change's.
    assert (rate["change_wins"], rate["ties"]) == (4, 0)
    assert rate["parent_quartile_distance"] == 2
    assert rate["parent_runs"] == parent_rates and rate["change_runs"] == change_rates
    assert rate["bound"] == 0.25 and rate["better"] == "higher"

    # Lower is better here: one pair shrank, four tie.
    steps = out["metrics"]["emitted_steps"]
    assert (steps["change_wins"], steps["ties"]) == (1, 4)
    assert steps["change"]["median"] == 40

    assert out["median_ms_by_kind"] == {"parent": {"a": 4.0}, "change": {"a": 1.0}}


def test_a_failed_run_clears_correct_all():
    parent = [bench_pairs.parse_run(run_output(10, 1, {}))]
    change = [bench_pairs.parse_run(run_output(10, 1, {}, correct=False))]
    out = bench_pairs.summarize_workload(SPECS, [7], parent, change)
    assert not out["correct_all"]
    assert out["metrics"]["instances_per_s"]["parent"] == {"median": 10, "q1": 10, "q3": 10}


def test_seeds_are_fresh_for_every_pr_and_workload():
    seeds = {pr: [bench_pairs.seeds_for(pr, w) for w in range(3)] for pr in (12, 13)}
    assert seeds[12][0] == list(range(12001, 12011))
    assert seeds[12][2] == list(range(12201, 12211))
    drawn = [s for pr in seeds for per_workload in seeds[pr] for s in per_workload]
    assert len(drawn) == len(set(drawn)) == 2 * 3 * bench_pairs.PAIRS


def test_a_claim_must_name_a_workload_and_metric_of_the_benchmark(monkeypatch, capsys):
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    assert bench_pairs.parse_claim("stagger_wide:instances_per_s", spec) == {
        "workload": "stagger_wide", "metric": "instances_per_s"
    }
    for claim in (
        "stagger_wide:instance_per_s",  # a typo
        "stager_wide:instances_per_s",
        "stagger_wide:stagger.staggerize_s",  # a per-layer metric
        "stagger_wide",
        "stagger_wide:instances_per_s:x",
    ):
        with pytest.raises(ValueError, match="not workload:metric"):
            bench_pairs.parse_claim(claim, spec)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("_git", "_extract", "bench"):
        monkeypatch.setattr(bench_pairs, name, no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--pr", "1", "--parent", "HEAD", "--claim", "identity_grid:tail_ms"])
    assert exit_info.value.code == 2
    assert "identity_grid:tail_ms" in capsys.readouterr().err
