"""The benchmark's checks are not vacuous.

Each test feeds one workload's checker a wrong output (a mutated emitted
program, a program with its mul operands swapped, a dropped term, a
swapped witness, a zero verdict from a tester that stopped early, an
edited RESULT line) and requires a non-zero error rate, after a control
run of the same instances with their real outputs has an error rate of
zero.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.run import run_round  # noqa: E402
from perfbench.tracing import MAX_COUNTS  # noqa: E402
from slpforge.circuits import ApplyStep, ConstOperand, RegOperand, StraightLineProgram  # noqa: E402
from slpforge.pit import PermVerdict, Verdict  # noqa: E402
from slpforge.polynomials import SparsePolynomial  # noqa: E402


def _error_rate(instances) -> float:
    result = run_round(instances, workloads.Wrong, MAX_COUNTS)
    return len(result.failures) / len(instances)


def _first(instances, kind: str):
    return next(inst for inst in instances if inst.kind == kind)


def _mutated(inst, mutate):
    """The same instance with ``mutate`` applied to its work's output."""
    return workloads.Instance(inst.kind, lambda call: mutate(inst.work(call)), inst.check)


def _assert_checks(instances, mutations) -> None:
    assert _error_rate(instances) == 0
    for inst, mutate in zip(instances, mutations):
        assert _error_rate([_mutated(inst, mutate)]) > 0, inst.kind


def _plus_one(prog: StraightLineProgram) -> StraightLineProgram:
    """The program with one extra step adding 1 to its output register."""
    out = prog.output_register
    step = ApplyStep(out, "add", RegOperand(out), ConstOperand(prog.ring.one()))
    return StraightLineProgram(
        prog.name, prog.ring, prog.mode, prog.num_variables,
        prog.register_count, prog.steps + (step,), out,
    )


def _mul_operands_swapped(prog: StraightLineProgram) -> StraightLineProgram:
    """The program with every mul(a, b) step turned into mul(b, a)."""
    steps = tuple(
        ApplyStep(step.dest, step.op, step.right, step.left)
        if isinstance(step, ApplyStep) and step.op == "mul"
        else step
        for step in prog.steps
    )
    return StraightLineProgram(
        prog.name, prog.ring, prog.mode, prog.num_variables,
        prog.register_count, steps, prog.output_register,
    )


def _without_a_term(poly: SparsePolynomial) -> SparsePolynomial:
    terms = dict(poly.terms)
    terms.pop(next(iter(terms)))
    return SparsePolynomial(poly.ring, poly.mode, poly.num_variables, terms)


def test_stagger_wide_checks(tmp_path):
    (tmp_path / "README.md").write_text((ROOT / "README.md").read_text())
    instances = workloads.stagger_wide(random.Random(3), tmp_path)
    stagger = _first(instances, "stagger w=8 rational comm")
    noncomm = _first(instances, "stagger w=8 rational noncomm")
    readme = _first(instances, "readme pipeline")

    def mutate_program(out):
        text, prog, staggered, report, back, text_out = out
        return text, _plus_one(prog), staggered, report, back, text_out

    def swap_mul_operands(out):
        # Equal at every point of numbers; the matrix points tell them apart.
        text, prog, staggered, report, back, text_out = out
        return text, _mul_operands_swapped(prog), staggered, report, back, text_out

    def mutate_result(out):
        edited = []
        for lines, codes in out:
            edited.append(([lines[0].replace("width=", "width=1")] + lines[1:], codes))
        return tuple(edited)

    _assert_checks(
        [stagger, noncomm, readme], [mutate_program, swap_mul_operands, mutate_result]
    )


def test_transform_series_checks():
    instances = workloads.transform_series(random.Random(3), ROOT)
    homog = next(i for i in instances if i.kind == "homog+deriv")
    root = _first(instances, "root n=1 r=1 m=3")
    balanced = _first(instances, "balanced n=2")

    def drop_slice_term(out):
        f, parts, slices, deriv, dpoly = out
        i = next(i for i, s in enumerate(slices) if s.terms)
        slices = list(slices)
        slices[i] = _without_a_term(slices[i])
        return f, parts, slices, deriv, dpoly

    def wrong_newton(out):
        problem, program, poly, newton = out
        one = SparsePolynomial.constant(newton.ring, newton.mode, newton.num_variables, 1)
        return problem, program, poly, newton.add(one)

    def drop_word(out):
        prog, left, abp, right = out
        return prog, _without_a_term(left), abp, right

    _assert_checks([homog, root, balanced], [drop_slice_term, wrong_newton, drop_word])


def test_identity_grid_checks():
    instances = workloads.identity_grid(random.Random(3), ROOT)
    zero = _first(instances, "sz zero")
    nonzero = _first(instances, "sz nonzero")
    grid = _first(instances, "nw m=2 nonzero")
    late = _first(instances, "sz nonzero late")
    late_grid = _first(instances, "nw m=3 nonzero late")
    bad = _first(instances, "perm bad schwartz_zippel")

    def claim_nonzero(out):
        c, verdict = out
        point = tuple(c.ring.one() for _ in range(c.num_variables))
        return c, Verdict("nonzero", point)

    def swap_witness(out):
        c, verdict = out
        witness = (verdict.witness[0] + c.ring.one(),) + verdict.witness[1:]
        return c, Verdict("nonzero", witness)

    def wrong_index(out):
        c, verdict = out
        return c, PermVerdict("reject", verdict.failing_index + 1, verdict.witness)

    def stop_early(out):
        # What a tester that gives up before the full point count returns.
        c, verdict = out
        return c, Verdict("zero")

    _assert_checks(
        [zero, nonzero, grid, late, late_grid, bad],
        [claim_nonzero, swap_witness, swap_witness, stop_early, stop_early, wrong_index],
    )
