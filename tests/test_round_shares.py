"""The per-call round profile tool, on one identity_grid round."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "round_shares.py"
_spec = importlib.util.spec_from_file_location("round_shares", TOOL)
round_shares = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(round_shares)

# The names identity_grid's instances pass to call() in perfbench/workloads.py.
IDENTITY_GRID_CALLS = {
    "transforms.depth_to_width",
    "pit.schwartz_zippel",
    "pit.nw_pit",
    "transforms.sparse_to_width2",
    "circuits.slp_to_circuit",
    "pit.verify_permanent_circuit",
}


def test_one_identity_grid_round_splits_into_its_calls(capsys):
    result = round_shares.round_shares("identity_grid", seed=7, rounds=1)
    assert set(result["calls_s"]) == IDENTITY_GRID_CALLS
    for times in (result["calls_s"], result["kinds_s"]):
        assert all(t > 0 for t in times.values())
        assert sum(round_shares.shares(times).values()) == pytest.approx(100)
    # The calls are made inside the instances' work, which the round times.
    assert sum(result["calls_s"].values()) <= result["round_s"]
    assert result["round_s"] == pytest.approx(sum(result["kinds_s"].values()))

    assert round_shares.main(["--workload", "identity_grid", "--rounds", "1"]) == 0
    printed = capsys.readouterr().out
    assert all(name in printed for name in IDENTITY_GRID_CALLS)


def test_kind_times_only_the_instances_it_names(capsys):
    result = round_shares.round_shares("identity_grid", seed=7, rounds=1, kind="nw ")
    assert result["kinds_s"] and all(kind.startswith("nw ") for kind in result["kinds_s"])
    assert set(result["calls_s"]) == {"transforms.depth_to_width", "pit.nw_pit"}
    with pytest.raises(ValueError):
        round_shares.round_shares("identity_grid", seed=7, rounds=1, kind="no such kind")

    assert round_shares.main(["--workload", "identity_grid", "--rounds", "1", "--kind", "sz"]) == 0
    printed = capsys.readouterr().out
    assert "pit.schwartz_zippel" in printed and "pit.nw_pit" not in printed
    with pytest.raises(SystemExit):
        round_shares.main(["--workload", "identity_grid", "--kind", "no such kind"])


def test_count_prints_calls_per_round_and_restores_the_attribute(capsys):
    from slpforge import circuits, pit

    batch, gate = pit.evaluate_batch, vars(circuits.CircuitBuilder)["gate"]
    names = ("slpforge.pit.evaluate_batch", "slpforge.circuits.CircuitBuilder.gate")
    result = round_shares.round_shares("identity_grid", 7, 2, kind="sz zero", count=names)
    # Ten zero inputs of 100 trials, each one int64 batch; depth_to_width
    # builds its circuit without CircuitBuilder.
    assert result["counts"] == {names[0]: 10.0, names[1]: 0.0}
    assert pit.evaluate_batch is batch and vars(circuits.CircuitBuilder)["gate"] is gate

    argv = ["--workload", "identity_grid", "--rounds", "1", "--kind", "sz zero"]
    assert round_shares.main([*argv, "--count", names[0]]) == 0
    printed = capsys.readouterr().out
    assert "counted (calls per round):" in printed and names[0] in printed
    assert pit.evaluate_batch is batch
    for bad in ("slpforge.pit.no_such_name", "no_such_module.f", "slpforge.pit.Verdict.is_zero.x"):
        with pytest.raises(SystemExit):
            round_shares.main([*argv, "--count", bad])


def test_a_counted_module_function_counts_every_binding_once():
    # pit and the package import evaluate_batch by value.  Counting it by
    # any module's name wraps every slpforge binding of it with one
    # wrapper, so each call counts once whichever name the caller reads.
    import slpforge
    from slpforge import circuits, pit

    batch = circuits.evaluate_batch
    bindings = {(m.__name__, attr) for m, attr in round_shares._bindings(circuits, "evaluate_batch")}
    assert bindings >= {
        ("slpforge.circuits", "evaluate_batch"),
        ("slpforge.pit", "evaluate_batch"),
        ("slpforge", "evaluate_batch"),
    }
    gate = round_shares._bindings(circuits.CircuitBuilder, "gate")
    assert gate == [(circuits.CircuitBuilder, "gate")]

    names = ("slpforge.circuits.evaluate_batch", "slpforge.pit.evaluate_batch")
    result = round_shares.round_shares("identity_grid", 7, 2, kind="sz zero", count=names[:1])
    assert result["counts"] == {names[0]: 10.0}
    # Each permanent check evaluates its candidate once per identity it
    # tests: 3 for each of the two accepted candidates, and at seed 7 the
    # rejected ones fail at B_2 (sz) and B_3 (nw).
    result = round_shares.round_shares("identity_grid", 7, 2, kind="perm", count=names)
    assert result["counts"] == {names[0]: 11.0, names[1]: 11.0}
    assert circuits.evaluate_batch is pit.evaluate_batch is slpforge.evaluate_batch is batch


def test_a_counted_static_or_class_method_keeps_its_kind():
    class Box:
        @staticmethod
        def twice(x):
            return 2 * x

        @classmethod
        def name(cls):
            return cls.__name__

    tally = {"twice": 0, "name": 0}
    for attr in tally:
        setattr(Box, attr, round_shares._counting(vars(Box)[attr], tally, attr))
    assert Box().twice(3) == Box.twice(3) == 6
    assert Box().name() == Box.name() == "Box"
    assert tally == {"twice": 2, "name": 2}
