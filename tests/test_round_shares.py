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
