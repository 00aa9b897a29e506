"""Live steps: folds and re-emitting transforms run only the steps the output reads."""

import hashlib
import operator
import random

import numpy as np
import pytest

from genutil import (
    formal_derivative,
    homogeneous_part,
    planted_root_program,
    program_digest,
    random_layered_circuit,
    random_slp,
    reference_live_steps,
    reference_slp_fold,
    without_dead_steps,
)
from slpforge.circuits import (
    ApplyStep,
    ConstOperand,
    LoadStep,
    RegOperand,
    SlpBuilder,
    VarOperand,
    evaluate,
    evaluate_batch,
    expand,
    live_steps,
    slp_to_circuit,
    syntactic_degree,
)
from slpforge.errors import DegreeBoundViolated, DegreeCapExceeded
from slpforge.families import build_permanent_sparse
from slpforge.pit import perm_check_instance
from slpforge.polynomials import (
    COMMUTATIVE,
    DEFAULT_CAPS,
    MODES,
    ExpansionCaps,
    SparsePolynomial,
    term_algebra,
)
from slpforge.rings import RATIONALS, PrimeField
from slpforge.rootfind import RootProblem, newton_series_root, root_circuit
from slpforge.transforms import (
    _BodyEmitter,
    homogeneous_components,
    homogeneous_prefix,
    partial_derivative_y,
    sparse_to_width2,
)

F = PrimeField(101)
BIG = PrimeField(2**31 - 1)


def draws(seed, count):
    """random_slp draws over F_101 and Q in both modes; most hold dead steps."""
    rng = random.Random(seed)
    for trial in range(count):
        ring = (F, RATIONALS)[trial % 2]
        mode = MODES[trial // 2 % 2]
        yield random_slp(
            rng, ring, mode, rng.randrange(1, 5), step_count=rng.randrange(0, 25)
        )


def test_live_steps_are_the_def_use_cone_of_the_output():
    dead = 0
    for slp in draws(191, 400):
        kept = tuple(slp.steps[j] for j in reference_live_steps(slp))
        assert live_steps(slp) == kept
        # Computed once: the program holds the result.
        assert live_steps(slp) is live_steps(slp)
        if len(kept) == slp.step_count:
            assert live_steps(slp) is slp.steps
        dead += len(kept) < slp.step_count
    assert dead > 300


@pytest.mark.parametrize("seed", range(4))
def test_slp_semantics_equal_the_full_walk(seed):
    # Each semantics against the fold loop that ran every step.
    dead = 0
    for slp in draws(200 + seed, 40):
        ring, n = slp.ring, slp.num_variables
        dead += len(live_steps(slp)) < slp.step_count
        alg = term_algebra(ring, slp.mode, n, DEFAULT_CAPS)
        want = alg.wrap(reference_slp_fold(slp, alg.var, alg.const, alg.add, alg.mul))
        got = expand(slp)
        assert (got, list(got.terms)) == (want, list(want.terms))
        assert syntactic_degree(slp) == reference_slp_fold(
            slp, lambda i: 1, lambda c: 0, max, operator.add
        )
        point = [ring.scalar(v) for v in range(2, 2 + n)]
        assert evaluate(slp, point) == reference_slp_fold(
            slp, [None, *point].__getitem__, lambda c: c, operator.add, operator.mul
        )
        if ring is F:
            columns = np.arange(3 * n, dtype=np.int64).reshape(n, 3)
            rows = [None, *columns]
            want = reference_slp_fold(
                slp,
                rows.__getitem__,
                lambda c: c.value,
                lambda a, b: (a + b) % 101,
                lambda a, b: (a * b) % 101,
            )
            assert evaluate_batch(slp, columns).tolist() == np.broadcast_to(want, 3).tolist()
    assert dead > 20


def _dead_power(ring=RATIONALS):
    """y^2 + 1 over (x1, y), with x1^16 computed in a register nothing reads."""
    sb = SlpBuilder(ring, COMMUTATIVE, 2, register_count=2, name="deadpow")
    sb.load(1, sb.var(1))
    for _ in range(4):
        sb.apply(1, "mul", sb.reg(1), sb.reg(1))
    sb.load(0, sb.var(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.const(1))
    return sb.finish(0)


def test_a_dead_step_past_the_caps_does_not_stop_expansion():
    # A declared change: only a step the output reads can overflow the
    # caps, so this program expands, and partial_derivative_y's y-degree
    # check sees it instead of being skipped.
    slp = _dead_power()
    caps = ExpansionCaps(max_degree=8)
    alg = term_algebra(slp.ring, slp.mode, 2, caps)
    with pytest.raises(DegreeCapExceeded):
        reference_slp_fold(slp, alg.var, alg.const, alg.add, alg.mul)
    y = SparsePolynomial.variable(RATIONALS, COMMUTATIVE, 2, 2)
    assert expand(slp, caps) == y.mul(y).add(SparsePolynomial.constant(RATIONALS, COMMUTATIVE, 2, 1))
    with pytest.raises(DegreeBoundViolated):
        partial_derivative_y(slp, 1, 1, caps)
    assert expand(partial_derivative_y(slp, 1, 2, caps)) == y.scale(2)


def _transforms(c):
    d = syntactic_degree(c)
    yield from homogeneous_components(c, d)
    yield homogeneous_prefix(c, d, d // 2)
    for j in range(min(d, 2) + 1):
        yield partial_derivative_y(c, j, d)


def test_transforms_re_emit_only_the_live_steps():
    # A transform of a program is the transform of its live steps alone,
    # step for step, and every step it emits is read.
    dead = 0
    for c in draws(211, 60):
        if c.mode != COMMUTATIVE or not c.num_variables:
            continue
        dead += len(live_steps(c)) < c.step_count
        for got, want in zip(_transforms(c), _transforms(without_dead_steps(c)), strict=True):
            assert program_digest(got) == program_digest(want)
            assert live_steps(got) == got.steps
    assert dead > 20


def test_root_programs_read_every_step():
    # root_circuit feeds only the accumulators a mixing term reads.
    rng = random.Random(223)
    for ring in (BIG, RATIONALS):
        for n, r, m in ((1, 1, 3), (1, 2, 2), (2, 2, 2), (3, 3, 2)):
            program, planted, y0 = planted_root_program(rng, ring, n, r)
            rp = RootProblem(program, r=r, m=m, y0=y0)
            slp = root_circuit(rp)
            assert live_steps(slp) == slp.steps, (n, r, m)
            assert slp.register_count == program.register_count + r + 3
            assert expand(slp) == newton_series_root(rp) == planted[0].truncate(m)


def _perm_candidates():
    for n in (2, 3):
        yield slp_to_circuit(sparse_to_width2(build_permanent_sparse(n, BIG)))
    rng = random.Random(193)
    for _ in range(3):
        yield random_layered_circuit(rng, BIG, COMMUTATIVE, width=3, num_variables=4)


def test_permanent_identity_programs_read_every_step():
    for c in _perm_candidates():
        for program in perm_check_instance(c).programs:
            assert live_steps(program) == program.steps


def _ratio_program(ring):
    """P = (1 + x2) y - x1, whose root x1 / (1 + x2) reads both accumulators."""
    sb = SlpBuilder(ring, COMMUTATIVE, 3, register_count=2, name="ratio")
    sb.load(0, sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.const(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(3))
    sb.load(1, sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.const(-1))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    return sb.finish(0)


def _no_dead_step_emissions():
    """Transform outputs on inputs without dead steps, by transform."""
    rng = random.Random(191)
    inputs = [
        without_dead_steps(random_slp(rng, ring, COMMUTATIVE, register_count=3, step_count=16))
        for ring in (BIG, RATIONALS)
        for _ in range(4)
    ]
    inputs += [planted_root_program(rng, ring, 2, 2)[0] for ring in (BIG, RATIONALS)]
    emitted = {"homogeneous_components": [], "homogeneous_prefix": [], "partial_derivative_y": []}
    for c in inputs:
        d = syntactic_degree(c)
        emitted["homogeneous_components"] += homogeneous_components(c, d)
        emitted["homogeneous_prefix"].append(homogeneous_prefix(c, d, d // 2))
        emitted["partial_derivative_y"] += [partial_derivative_y(c, j, d) for j in range(min(d, 2) + 1)]
    emitted["root_circuit"] = [
        root_circuit(RootProblem(_ratio_program(ring), r=1, m=m, y0=0))
        for ring in (BIG, RATIONALS)
        for m in (2, 3)
    ]
    emitted["perm_check_instance"] = [
        program for c in _perm_candidates() for program in perm_check_instance(c).programs
    ]
    return emitted


# sha256 over the program_digest of every output, as emitted before the
# transforms re-emitted live steps only.  On inputs with no dead step
# the emission must not move by a byte.  root_circuit's digest is that of
# its slice grid sized from the mixing terms, a declared output change.
# The homogeneous transforms' digests are those of one-step staging
# (r = x_i * z for load r <- x_i; r = r * z), a declared output change:
# 676 -> 545 and 248 -> 203 steps.
EMITTED_BEFORE = {
    "homogeneous_components": "b321e3056a9922408a0606853e2544838b11095c0929cccf117deecbf712bbef",
    "homogeneous_prefix": "5e301a6c1aacc5e94f59f60dd9a162344c23b0d4e7c8a0a5710a72d6b1b6748c",
    "partial_derivative_y": "db7104086456baa8feadf1661a9151d3ab67c9fe92b6a2e9b52c24b18b933d8b",
    "root_circuit": "b7c0f92fee066db7841e8b7e08c82cec78ff15f63f5e8e193c35ed1b0543460f",
    "perm_check_instance": "ab67c119003e6462ddfd3e43d5bb6966d80b63b2df675cae8d0643260325cf39",
}


def test_emission_without_dead_steps_is_unchanged():
    emitted = _no_dead_step_emissions()
    for kind, programs in emitted.items():
        joined = " ".join(program_digest(program) for program in programs)
        assert hashlib.sha256(joined.encode()).hexdigest() == EMITTED_BEFORE[kind], kind
    for programs in emitted.values():
        for program in programs:
            assert live_steps(program) == program.steps


def _reads(step):
    """The variable indices a step reads."""
    ops = (step.source,) if isinstance(step, LoadStep) else (step.left, step.right)
    return {op.index for op in ops if isinstance(op, VarOperand)}


def _emitted_runs(emitter, runs):
    """The steps of each run, emitted one after another."""
    steps = emitter.sb._steps
    out = []
    for kwargs in runs:
        start = len(steps)
        emitter.run(**kwargs)
        out.append(steps[start:])
    return out


def test_re_runs_append_the_body_steps_they_leave_alone():
    # Steps are immutable: a run appends the body's own object for every
    # step whose variable reads it leaves as they are, and the same clear
    # steps on every run after the first; only a step with a rewritten
    # read is new, and a body step costs at most 3 (two stages, itself).
    runs = 0
    for c in draws(227, 80):  # over x1..x3
        n, body = c.num_variables, live_steps(c)
        if not body:
            continue
        w = c.register_count
        sb = SlpBuilder(c.ring, c.mode, n, register_count=w + 1)
        emitter = _BodyEmitter(sb, c, w)
        three = c.ring.scalar(3)
        kinds = [
            ({}, set(), False),
            ({"scale": c.ring.one()}, set(), False),
            ({"scale": three}, set(range(1, n + 1)), True),
            ({"leaves": {1: ConstOperand(three)}}, {1}, False),
            ({"leaves": {1: VarOperand(2)}}, {1}, False),
            ({"scale": three, "leaves": {n: ConstOperand(three)}}, set(range(1, n + 1)), True),
        ]
        emitted = _emitted_runs(emitter, [kwargs for kwargs, _, _ in kinds])
        for index, (run, (_, rewritten, scaled)) in enumerate(zip(emitted, kinds)):
            if index:
                clears = run[: len(emitter.clears)]
                assert all(a is b for a, b in zip(clears, emitter.clears))
                run = run[len(emitter.clears) :]
            kept = [step for step in body if not _reads(step) & rewritten]
            reused = [step for step in run if any(step is b for b in body)]
            assert len(reused) == len(kept) and all(a is b for a, b in zip(reused, kept))
            assert len(run) <= 3 * len(body)
            if not scaled:
                assert len(run) == len(body)
            runs += 1
    assert runs > 300


def test_a_scaled_variable_read_is_one_step():
    # load r <- x_i scaled by z is r = x_i * z, and a scaled operand of
    # an apply step is staged by one step reading the variable and z.
    sb = SlpBuilder(RATIONALS, COMMUTATIVE, 2, register_count=2, name="body")
    sb.load(0, sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(1, "add", sb.var(1), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    body = sb.finish(0)
    out = SlpBuilder(RATIONALS, COMMUTATIVE, 2, register_count=3)
    z = ConstOperand(RATIONALS.scalar(5))
    assert _BodyEmitter(out, body, 2).run(scale=z.value) == 0
    x1, x2 = VarOperand(1), VarOperand(2)
    r0, r1, stage = RegOperand(0), RegOperand(1), RegOperand(2)
    assert out._steps == [
        ApplyStep(0, "mul", x1, z),
        ApplyStep(2, "mul", x2, z),
        ApplyStep(0, "mul", r0, stage),
        ApplyStep(2, "mul", x1, z),
        ApplyStep(1, "mul", x2, z),
        ApplyStep(1, "add", stage, r1),
        ApplyStep(0, "add", r0, r1),
    ]
    assert out._steps[-1] is body.steps[-1]
    x = [SparsePolynomial.variable(RATIONALS, COMMUTATIVE, 2, i) for i in (1, 2)]
    scaled = [v.scale(5) for v in x]
    assert expand(out.finish(0)) == scaled[0].mul(scaled[1]).add(scaled[0].add(scaled[1]))


def test_transform_outputs_expand_to_the_reference():
    # Every homogeneous slice, prefix, derivative and root program
    # expands to the reference polynomial on the genutil draws.
    checked = 0
    for c in draws(229, 80):
        if c.mode != COMMUTATIVE or not c.num_variables:
            continue
        whole, d, y = expand(c), syntactic_degree(c), c.num_variables
        parts = [homogeneous_part(whole, i) for i in range(d + 1)]
        assert [expand(h) for h in homogeneous_components(c, d)] == parts
        prefix = SparsePolynomial.zero(c.ring, COMMUTATIVE, y)
        for part in parts[: d // 2 + 1]:
            prefix = prefix.add(part)
        assert expand(homogeneous_prefix(c, d, d // 2)) == prefix
        for j in range(min(d, 2) + 1):
            assert expand(partial_derivative_y(c, j, d)) == formal_derivative(whole, y, j)
        checked += 1
    assert checked > 20
    rng = random.Random(233)
    for ring in (F, RATIONALS):
        for n, r, m in ((1, 1, 2), (2, 2, 2), (3, 3, 1)):
            program, planted, y0 = planted_root_program(rng, ring, n, r)
            assert expand(root_circuit(RootProblem(program, r=r, m=m, y0=y0))) == (
                planted[0].truncate(m)
            )
