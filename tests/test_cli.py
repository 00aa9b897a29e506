"""Command-line surface: grammar, files, RESULT lines, exit codes."""

import random

import pytest

from genutil import (
    evaluate_sparse,
    random_layered_circuit,
    reference_nw_pit,
    reference_schwartz_zippel,
)
from slpforge import cli, pit
from slpforge.circuits import circuit_to_slp, evaluate, expand, slp_to_circuit
from slpforge.cli import _build_parser, _formula_from_expression, main
from slpforge.pit import HARD_FAMILIES
from slpforge.polynomials import COMMUTATIVE, NONCOMMUTATIVE
from slpforge.rings import RATIONALS, PrimeField
from slpforge.stagger import staggerize
from slpforge.textio import (
    parse_circuit,
    parse_polynomial,
    serialize_circuit,
    serialize_polynomial,
)
from slpforge.transforms import depth_to_width


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_line(out):
    lines = out.strip().splitlines()
    assert lines and lines[-1].startswith("RESULT ")
    return dict(item.split("=", 1) for item in lines[-1][len("RESULT "):].split())


def test_family_p_circuit(tmp_path, capsys):
    out_file = tmp_path / "p22.ckt"
    code, out, err = run(
        capsys,
        "family", "--name", "P", "--l", "2", "--k", "2",
        "--form", "circuit", "-o", str(out_file),
    )
    assert code == 0 and err == ""
    assert out.strip().splitlines()[-1] == "RESULT width=4 terms=8"
    c = parse_circuit(out_file.read_text())
    assert c.num_variables == 16
    assert len(expand(c).terms) == 8


def test_family_p_formula_writes_polynomial(tmp_path, capsys):
    out_file = tmp_path / "p21.poly"
    code, out, _ = run(
        capsys,
        "family", "--name", "P", "--l", "2", "--k", "1",
        "--form", "formula", "-o", str(out_file),
    )
    assert code == 0
    assert result_line(out) == {"terms": "2", "degree": "2"}
    name, poly = parse_polynomial(out_file.read_text())
    assert poly.text() == "x1*x2 + x3*x4"


def test_family_palindrome_and_eabp(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "family", "--name", "palindrome", "--n", "3",
        "-o", str(tmp_path / "pal.ckt"),
    )
    assert code == 0
    assert result_line(out) == {"width": "2", "size": "25", "words": "8"}

    code, out, _ = run(
        capsys,
        "family", "--name", "E-abp", "--n", "2", "-o", str(tmp_path / "e.abp"),
    )
    assert code == 0
    assert result_line(out) == {"vertices": "9", "edges": "12"}
    parse_circuit((tmp_path / "e.abp").read_text())


def test_family_missing_params_is_usage_error(capsys):
    code, out, err = run(capsys, "family", "--name", "P", "--form", "circuit")
    assert code == 2
    assert "requires --l, --k" in err
    assert "RESULT" not in out


def test_stagger_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.ckt"
    dst = tmp_path / "out.ckt"
    run(capsys, "family", "--name", "P", "--l", "2", "--k", "2", "-o", str(src))
    code, out, _ = run(capsys, "stagger", "-i", str(src), "-o", str(dst))
    assert code == 0
    keys = result_line(out)
    assert int(keys["registers"]) <= 5
    staggered = parse_circuit(dst.read_text())
    assert expand(staggered) == expand(parse_circuit(src.read_text()))


def test_stagger_converts_a_staggered_file_as_circuit_to_slp(tmp_path, capsys):
    # A file writes each copy as an explicit gate u*1; read as a program,
    # the staggered form of a width-128 circuit costs one step per layer.
    rng = random.Random(13)
    c = random_layered_circuit(rng, PrimeField(101), COMMUTATIVE, 128, layer_sizes=[128, 128, 16])
    src = tmp_path / "in.ckt"
    src.write_text(serialize_circuit(slp_to_circuit(staggerize(c))))
    code, out, _ = run(capsys, "stagger", "-i", str(src), "-o", str(tmp_path / "out.ckt"))
    assert code == 0
    steps = circuit_to_slp(parse_circuit(src.read_text())).step_count
    assert int(result_line(out)["steps"]) == steps


def test_depth2width_and_eval(tmp_path, capsys):
    out_file = tmp_path / "c.ckt"
    code, out, _ = run(
        capsys,
        "depth2width", "--expr", "(x1+x2)*(x3+2)", "--vars", "3",
        "-o", str(out_file),
    )
    assert code == 0
    assert result_line(out)["width"] == "2"

    code, out, _ = run(capsys, "eval", "-i", str(out_file), "--point", "1,2,5")
    assert code == 0
    assert result_line(out)["value"] == "21"


def test_homog_deriv_root_compile_pipeline(tmp_path, capsys):
    base = tmp_path / "base.ckt"
    run(
        capsys,
        "depth2width", "--expr", "(x2-1)*(x2-2)+x1", "--vars", "2",
        "-o", str(base),
    )

    h0 = tmp_path / "h0.ckt"
    code, out, _ = run(
        capsys, "homog", "-i", str(base), "--degree", "2", "--index", "0",
        "-o", str(h0),
    )
    assert code == 0
    assert expand(parse_circuit(h0.read_text())).text() == "2"

    der = tmp_path / "der.ckt"
    code, out, _ = run(
        capsys, "deriv", "-i", str(base), "--j", "1", "--r", "2", "-o", str(der),
    )
    assert code == 0
    # d/dy of y^2 - 3y + 2 + x1 with y = x2.
    assert expand(parse_circuit(der.read_text())).text() == "-3 + 2*x2"

    rooted = tmp_path / "root.ckt"
    code, out, _ = run(
        capsys, "root", "-i", str(base), "--y0", "1", "--m", "2", "--r", "2",
        "-o", str(rooted),
    )
    assert code == 0
    root_poly = expand(parse_circuit(rooted.read_text()))
    # Solving (y-1)(y-2) = -x1 around y0 = 1 gives y = 1 + x1 + x1^2 + O(x1^3).
    assert root_poly.text() == "1 + x1 + x1^2"


def test_program_commands_build_the_circuit_only_for_output(tmp_path, capsys, monkeypatch):
    base = tmp_path / "base.ckt"
    poly_file = tmp_path / "p.poly"
    run(capsys, "depth2width", "--expr", "(x2-1)*(x2-2)+x1", "--vars", "2", "-o", str(base))
    run(capsys, "family", "--name", "perm", "--k", "2", "-o", str(poly_file))
    calls = []
    written = []

    def counted(prog):
        calls.append(prog)
        return slp_to_circuit(prog)

    def counting(serialize):
        def wrapper(*args, **kwargs):
            written.append(serialize.__name__)
            return serialize(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "slp_to_circuit", counted)
    for serialize in (serialize_circuit, serialize_polynomial):
        monkeypatch.setattr(cli, serialize.__name__, counting(serialize))
    programs = [
        ["homog", "-i", str(base), "--degree", "2", "--index", "1"],
        ["deriv", "-i", str(base), "--j", "1", "--r", "2"],
        ["root", "-i", str(base), "--y0", "1", "--m", "2", "--r", "2"],
        ["compile-sparse", "-i", str(poly_file)],
        ["family", "--name", "E-width2", "--n", "2"],
    ]
    # Commands whose output is a circuit, ABP or polynomial they build anyway.
    others = [
        ["family", "--name", "P", "--l", "2", "--k", "2"],
        ["family", "--name", "P", "--l", "2", "--k", "2", "--form", "formula"],
        ["family", "--name", "palindrome", "--n", "2"],
        ["family", "--name", "E-abp", "--n", "2"],
        ["family", "--name", "perm", "--k", "3"],
        ["depth2width", "--expr", "(x1+x2)*x3", "--vars", "3"],
        ["expand", "-i", str(base)],
        ["stagger", "-i", str(base)],
    ]
    for index, argv in enumerate(programs + others):
        calls.clear()
        written.clear()
        code, bare, _ = run(capsys, *argv)
        assert code == 0 and written == []
        if argv in programs:
            assert calls == []
        out_file = tmp_path / f"out{index}.txt"
        code, out, _ = run(capsys, *argv, "-o", str(out_file))
        assert code == 0 and len(written) == 1
        assert result_line(out) == result_line(bare)
        if argv in programs:
            assert len(calls) == 1
            assert out_file.read_text() == serialize_circuit(slp_to_circuit(calls[0]))
    # project builds its circuit only for output, and reports its width then.
    project = ["project", "--expr", "x1*x2+x3", "--vars", "3", "--l", "2", "--k", "2"]
    written.clear()
    code, bare, _ = run(capsys, *project)
    assert code == 0 and written == [] and "width" not in result_line(bare)
    code, out, _ = run(capsys, *project, "-o", str(tmp_path / "project.ckt"))
    assert code == 0 and written == ["serialize_circuit"]
    assert result_line(out) == {**result_line(bare), "width": result_line(out)["width"]}


def test_compile_sparse_inverts_expand(tmp_path, capsys):
    src = tmp_path / "p.ckt"
    poly_file = tmp_path / "p.poly"
    back = tmp_path / "back.ckt"
    run(capsys, "family", "--name", "P", "--l", "2", "--k", "1", "-o", str(src))
    code, out, _ = run(capsys, "expand", "-i", str(src), "-o", str(poly_file))
    assert code == 0
    assert result_line(out) == {"terms": "2", "degree": "2"}
    code, out, _ = run(capsys, "compile-sparse", "-i", str(poly_file), "-o", str(back))
    assert code == 0
    assert result_line(out)["registers"] == "2"
    assert expand(parse_circuit(back.read_text())) == expand(parse_circuit(src.read_text()))


def test_mon_reports_components_and_coverage(tmp_path, capsys):
    src = tmp_path / "p.ckt"
    run(capsys, "family", "--name", "P", "--l", "2", "--k", "2", "-o", str(src))
    code, out, _ = run(
        capsys,
        "mon", "--circuit", str(src), "--family", "P", "--l", "2", "--k", "2",
    )
    assert code == 0
    info = [line for line in out.splitlines() if line.startswith("component ")]
    assert len(info) == 2
    keys = result_line(out)
    assert keys == {
        "monomials": "8",
        "degree": "4",
        "components": "2",
        "contained": "true",
        "fraction": "1",
    }


def test_project_prints_total_map(tmp_path, capsys):
    out_file = tmp_path / "proj.ckt"
    code, out, _ = run(
        capsys,
        "project", "--expr", "x1*x2+x3", "--vars", "3",
        "--l", "2", "--k", "2", "-o", str(out_file),
    )
    assert code == 0
    keys = result_line(out)
    assert keys["entries"] == "16"
    assert out.count("subst x") == 16
    projected = parse_circuit(out_file.read_text())
    target = depth_to_width(
        _formula_from_expression("x1*x2+x3", RATIONALS, COMMUTATIVE, 3)
    )
    assert expand(projected) == expand(target)


def test_pit_exit_zero_both_verdicts(tmp_path, capsys):
    zero = tmp_path / "zero.ckt"
    nonzero = tmp_path / "nz.ckt"
    run(capsys, "depth2width", "--expr", "x1-x1", "--vars", "1", "-o", str(zero))
    run(capsys, "depth2width", "--expr", "x1+1", "--vars", "1", "-o", str(nonzero))

    code, out, _ = run(
        capsys, "pit", "--circuit", str(zero), "--mode", "sz", "--trials", "10",
        "--seed", "7",
    )
    assert code == 0
    assert result_line(out) == {"verdict": "zero"}

    code, out, _ = run(
        capsys, "pit", "--circuit", str(nonzero), "--mode", "sz", "--seed", "7",
    )
    assert code == 0
    keys = result_line(out)
    assert keys["verdict"] == "nonzero"
    assert "witness" in keys

    code, out, _ = run(
        capsys, "pit", "--circuit", str(zero), "--mode", "nw", "--m", "2",
    )
    assert code == 0
    assert result_line(out) == {"verdict": "zero"}


def test_pit_over_a_small_prime_prints_the_reference_result(tmp_path, capsys):
    # x1*x2*(x3 - 1): nonzero on 1 point in 8 of {0,1}^3, zero at the grid origin.
    ring = PrimeField(101)
    c = depth_to_width(_formula_from_expression("x1*x2*(x3-1)", ring, COMMUTATIVE, 3))
    src = tmp_path / "small.ckt"
    src.write_text(serialize_circuit(c))
    assert "ring prime 101" in src.read_text()
    for seed in range(4):
        expected = reference_schwartz_zippel(c, 6, None, seed, 2)
        _, out, _ = run(
            capsys, "pit", "--circuit", str(src), "--mode", "sz", "--trials", "6",
            "--seed", str(seed), "--sample-size", "2",
        )
        assert out.strip().splitlines()[-1] == _result_text(expected)
    expected = reference_nw_pit(c, HARD_FAMILIES["parity-rule"], 2, 3)
    assert expected.witness is not None
    _, out, _ = run(
        capsys, "pit", "--circuit", str(src), "--mode", "nw", "--m", "2",
        "--sample-size", "3", "--hard-family", "parity-rule",
    )
    assert out.strip().splitlines()[-1] == _result_text(expected)


def _result_text(verdict):
    line = f"RESULT verdict={verdict.status}"
    if verdict.witness is not None:
        line += " witness=" + ",".join(s.text() for s in verdict.witness)
    return line


def test_pit_result_deterministic(tmp_path, capsys):
    src = tmp_path / "p.ckt"
    run(capsys, "family", "--name", "P", "--l", "2", "--k", "1", "-o", str(src))
    argv = ["pit", "--circuit", str(src), "--mode", "sz", "--trials", "3", "--seed", "11"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_perm_accept_and_n_check(tmp_path, capsys):
    poly_file = tmp_path / "perm2.poly"
    circuit = tmp_path / "perm2.ckt"
    run(capsys, "family", "--name", "perm", "--k", "2", "-o", str(poly_file))
    run(capsys, "compile-sparse", "-i", str(poly_file), "-o", str(circuit))

    code, out, _ = run(
        capsys, "verify-perm", "--circuit", str(circuit), "--n", "2",
        "--mode", "sz", "--seed", "3",
    )
    assert code == 0
    assert result_line(out) == {"verdict": "accept"}

    code, out, err = run(
        capsys, "verify-perm", "--circuit", str(circuit), "--n", "3", "--mode", "sz",
    )
    assert code == 1
    assert "file has 4" in err


def test_verify_perm_nw_honours_the_grid_budget(tmp_path, capsys, monkeypatch):
    # pit and verify-perm read the same SLPFORGE_CAPS grid_budget, whose
    # default is the library's.
    poly_file = tmp_path / "perm3.poly"
    circuit = tmp_path / "perm3.ckt"
    run(capsys, "family", "--name", "perm", "--k", "3", "-o", str(poly_file))
    run(capsys, "compile-sparse", "-i", str(poly_file), "-o", str(circuit))
    pit_nw = ["pit", "--circuit", str(circuit), "--mode", "nw"]
    verify_nw = ["verify-perm", "--circuit", str(circuit), "--n", "3", "--mode", "nw"]

    def error_line(argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "RESULT" not in out
        return err.strip().splitlines()[-1]

    assert cli._caps_from_env(None).grid_budget == pit._GRID_BUDGET
    monkeypatch.setenv("SLPFORGE_CAPS", "grid_budget=1")
    assert error_line(pit_nw) == "error: grid 7^4 exceeds budget 1"
    assert error_line(verify_nw) == "error: grid 3^4 exceeds budget 1"
    monkeypatch.setenv("SLPFORGE_CAPS", "grid_budget=10")
    assert error_line(verify_nw + ["--m", "3"]) == "error: grid 4^9 exceeds budget 10"


def test_a_sample_size_below_one_is_an_operation_error(tmp_path, capsys):
    # Without sample points nw would print verdict=zero and sz crash in numpy.
    circuit = tmp_path / "c.ckt"
    run(capsys, "depth2width", "--expr", "1+x1", "--vars", "1", "-o", str(circuit))
    wrong = tmp_path / "wrong.ckt"
    run(capsys, "depth2width", "--expr", "x1*x4", "--vars", "4", "-o", str(wrong))
    for argv in (
        ["pit", "--circuit", str(circuit), "--mode", "nw"],
        ["pit", "--circuit", str(circuit), "--mode", "sz"],
        ["verify-perm", "--circuit", str(wrong), "--mode", "nw"],
    ):
        for size in ("0", "-1"):
            code, out, err = run(capsys, *argv, "--sample-size", size)
            assert code == 1 and "RESULT" not in out
            assert err == f"error: sample_size must be >= 1, got {size}\n"


def test_a_negative_variable_count_is_an_operation_error(tmp_path, capsys):
    # pit and expand died in numpy and in a shift, and stagger succeeded.
    circuit = tmp_path / "negative.ckt"
    circuit.write_text(
        "circuit neg\nring prime 101\nmode commutative\nvars -1\n"
        "gate 1 1 const 2\noutput 1\n"
    )
    for argv in (
        ["pit", "--circuit", str(circuit), "--mode", "sz"],
        ["expand", "-i", str(circuit)],
        ["stagger", "-i", str(circuit)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "RESULT" not in out, argv
        assert err == "error: line 4: variable count must be >= 0, got -1\n", argv


def test_verify_perm_rejects_wrong_candidate(tmp_path, capsys):
    wrong = tmp_path / "wrong.ckt"
    run(
        capsys,
        "depth2width", "--expr", "x1*x4", "--vars", "4", "-o", str(wrong),
    )
    code, out, _ = run(
        capsys, "verify-perm", "--circuit", str(wrong), "--mode", "sz", "--seed", "1",
    )
    assert code == 0
    keys = result_line(out)
    assert keys["verdict"] == "reject"
    assert "k" in keys and "witness" in keys


def test_missing_file_is_operation_error(capsys):
    code, out, err = run(capsys, "stagger", "-i", "no-such-file.ckt")
    assert code == 1
    assert "no-such-file.ckt" in err
    assert "RESULT" not in out


def test_bare_source_line_is_operation_error(tmp_path, capsys):
    src = tmp_path / "bare.abp"
    src.write_text(
        "abp bare\nring prime 101\nvars 1\nvertex 1 0\nvertex 2 1\n"
        "edge 1 2 0 1:1\nsource\nsink 2\n"
    )
    code, out, err = run(capsys, "expand", "-i", str(src))
    assert code == 1
    assert err.startswith("error: ")
    assert "source <id>" in err
    assert "Traceback" not in err
    assert "RESULT" not in out


# A leaf reading x2 in a 1-variable circuit, and a layer-4 gate reading
# layer 2: both parse, and neither is a valid layered circuit.
_INVALID_CIRCUITS = {
    "var_beyond_vars": (
        "circuit badvar\nring rational\nmode commutative\nvars 1\n"
        "gate 1 1 var 2\ngate 2 2 add 1 1\noutput 2\n",
        "gate 1 reads x2 beyond vars 1",
    ),
    "skipped_layer": (
        "circuit skip\nring rational\nmode commutative\nvars 2\n"
        "gate 1 1 var 1\ngate 2 1 var 2\ngate 3 2 add 1 2\n"
        "gate 4 3 mul 3 3\ngate 5 4 mul 3 4\noutput 5\n",
        "gate 5 in layer 4 reads layer 2",
    ),
}


@pytest.mark.parametrize("kind", sorted(_INVALID_CIRCUITS))
@pytest.mark.parametrize("command", ["eval", "expand", "pit", "stagger", "mon"])
def test_every_command_rejects_an_invalid_circuit(tmp_path, capsys, kind, command):
    text, message = _INVALID_CIRCUITS[kind]
    src = tmp_path / "bad.ckt"
    src.write_text(text)
    argv = {
        "eval": ["eval", "-i", str(src), "--point", "1,3"],
        "expand": ["expand", "-i", str(src)],
        "pit": ["pit", "--circuit", str(src), "--mode", "sz"],
        "stagger": ["stagger", "-i", str(src)],
        "mon": ["mon", "--circuit", str(src)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {message}\n"
    assert "RESULT" not in out


def test_repeated_main_calls_equal_fresh_ones(tmp_path, capsys):
    sequence = [
        ["--help"],
        ["homog", "--degree", "2"],
        ["depth2width", "--expr", "(x1+x2)*x3", "--vars", "3", "-o", str(tmp_path / "c.ckt")],
    ]
    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert fresh[0][1].startswith("usage: slpforge")
    assert "required: -i/--input" in fresh[1][2]
    assert fresh[2][1] == "RESULT width=1 size=5 depth=2\n"

    parser = _build_parser()
    reused = [run(capsys, *argv) for argv in sequence + sequence]
    assert reused == fresh + fresh
    assert _build_parser() is parser


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["bogus"]) == 2


def test_caps_env_override(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p.ckt"
    run(capsys, "family", "--name", "P", "--l", "2", "--k", "2", "-o", str(src))

    monkeypatch.setenv("SLPFORGE_CAPS", "max_terms=4")
    code, out, err = run(capsys, "expand", "-i", str(src))
    assert code == 1
    assert "cap" in err

    monkeypatch.setenv("SLPFORGE_CAPS", "max_terms=oops")
    code, out, err = run(capsys, "expand", "-i", str(src))
    assert code == 2

    monkeypatch.setenv("SLPFORGE_CAPS", "max_terms=4096,grid_budget=9")
    code, out, err = run(
        capsys, "pit", "--circuit", str(src), "--mode", "nw", "--m", "2",
    )
    assert code == 1
    assert "grid" in err.lower()


def test_expression_parser_forms():
    f = _formula_from_expression("2*x1**3 - x2 + (x1+x2)**2", RATIONALS, COMMUTATIVE, 2)
    c = depth_to_width(f)
    poly = expand(c)
    assert evaluate_sparse(poly, [1, 2]).value == 2 - 2 + 9

    half = _formula_from_expression("3/4 * x1", RATIONALS, COMMUTATIVE, 1)
    assert expand(depth_to_width(half)).text() == "3/4*x1"

    word = _formula_from_expression("x1*x2 - x2*x1", RATIONALS, NONCOMMUTATIVE, 2)
    assert expand(depth_to_width(word)).terms != {}

    with pytest.raises(Exception):
        _formula_from_expression("x1 +", RATIONALS, COMMUTATIVE, 1)
    with pytest.raises(Exception):
        _formula_from_expression("y1 + 2", RATIONALS, COMMUTATIVE, 1)
    with pytest.raises(Exception):
        _formula_from_expression("x1**x2", RATIONALS, COMMUTATIVE, 2)


def test_root_under_a_small_term_cap_exits_1(tmp_path, capsys, monkeypatch):
    base = tmp_path / "base.ckt"
    run(
        capsys,
        "depth2width", "--expr", "x4*x4-1-x1-x2-x3", "--vars", "4",
        "-o", str(base),
    )
    argv = ["root", "-i", str(base), "--y0", "1", "--m", "4", "--r", "2"]
    monkeypatch.setenv("SLPFORGE_CAPS", "max_terms=8")
    code, out, err = run(capsys, "expand", "-i", str(base))
    assert code == 0 and result_line(out)["terms"] == "5"
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "capped.ckt"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "exceeds cap 8" in err
    monkeypatch.delenv("SLPFORGE_CAPS")
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "root.ckt"))
    assert code == 0


def test_root_past_half_the_degree_cap(tmp_path, capsys, monkeypatch):
    # The series products reach 2m = 10 before truncation to m = 5; only
    # the term cap limits the root path, so max_degree=8 still gives a root.
    base = tmp_path / "sqrt.ckt"
    run(capsys, "depth2width", "--expr", "x2*x2-1-x1", "--vars", "2", "-o", str(base))
    monkeypatch.setenv("SLPFORGE_CAPS", "max_degree=8")
    out_path = tmp_path / "root.ckt"
    code, out, err = run(
        capsys, "root", "-i", str(base), "--y0", "1", "--m", "5", "--r", "2",
        "-o", str(out_path),
    )
    assert code == 0 and err == ""
    assert result_line(out)["m"] == "5"
    monkeypatch.delenv("SLPFORGE_CAPS")
    code, out, err = run(capsys, "expand", "-i", str(out_path))
    assert code == 0 and result_line(out)["terms"] == "6"


def test_root_past_the_mixing_cap_exits_1(tmp_path, capsys, monkeypatch):
    # Every series and product fits 12 terms; the 3 x 15 mixing system does not.
    base = tmp_path / "cubic.ckt"
    run(
        capsys,
        "depth2width", "--expr", "(x2-1-x1)*(x2-2-2*x1)*(x2-3+x1)", "--vars", "2",
        "-o", str(base),
    )
    argv = ["root", "-i", str(base), "--y0", "1", "--m", "2", "--r", "3"]
    monkeypatch.setenv("SLPFORGE_CAPS", "max_terms=12")
    code, out, err = run(capsys, "expand", "-i", str(base))
    assert code == 0 and result_line(out)["terms"] == "10"
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "capped.ckt"))
    assert code == 1 and out == ""
    assert err == "error: mixing system of 3 x 15 = 45 entries exceeds cap 12\n"
    monkeypatch.setenv("SLPFORGE_CAPS", "max_terms=45")
    out_path = tmp_path / "root.ckt"
    code, out, err = run(capsys, *argv, "-o", str(out_path))
    assert code == 0 and err == ""
    monkeypatch.delenv("SLPFORGE_CAPS")
    code, out, err = run(capsys, "expand", "-i", str(out_path))
    assert code == 0 and result_line(out)["terms"] == "2"  # the root 1 + x1
