"""The shared fold: every semantics agrees across circuits, SLPs and ABPs."""

import os
import random
import statistics
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from genutil import (
    evaluate_sparse,
    random_layered_circuit,
    random_slp,
    reference_expand,
    reference_homogeneous,
    sympy_of,
    sympy_program,
    with_mode,
)
from slpforge.circuits import (
    AlgebraicBranchingProgram,
    CircuitBuilder,
    LinearForm,
    SlpBuilder,
    batch_dtype,
    evaluate,
    evaluate_batch,
    expand,
    slp_to_circuit,
    syntactic_degree,
    validate,
)
from slpforge.errors import (
    ArityMismatch,
    DegreeCapExceeded,
    SlpforgeError,
    TermCapExceeded,
)
import slpforge
from slpforge.families import build_E_abp
from slpforge.polynomials import COMMUTATIVE, MODES, ExpansionCaps, SparsePolynomial
from slpforge.transforms import homogeneous_components
from slpforge.rings import DEFAULT_PRIME, PrimeField, RATIONALS
from slpforge.stagger import staggerize

F = PrimeField(101)


def random_abp(rng, ring, mode, num_variables=3, inner_layers=3, width=3):
    """Random layered ABP; some vertices get no incoming edge at all."""
    layers = [[0]]
    next_id = 1
    for _ in range(inner_layers):
        layers.append(list(range(next_id, next_id + rng.randrange(1, width + 1))))
        next_id += len(layers[-1])
    layers.append([next_id])
    edges = []
    for below, above in zip(layers, layers[1:]):
        for v in above:
            for u in below:
                if rng.random() < 0.6:
                    coeffs = {
                        i: ring.scalar(rng.randrange(-3, 4))
                        for i in rng.sample(range(1, num_variables + 1), rng.randrange(3))
                    }
                    label = LinearForm(ring.scalar(rng.randrange(-2, 3)), coeffs)
                    edges.append((u, v, label))
    return AlgebraicBranchingProgram(
        "rabp", ring, num_variables, layers, edges, 0, next_id, mode=mode
    )


def ir_objects(seed):
    rng = random.Random(seed)
    for ring in (F, RATIONALS):
        for mode in MODES:
            yield random_layered_circuit(rng, ring, mode, width=3, num_variables=3)
            yield random_slp(rng, ring, mode, register_count=3)
            yield random_abp(rng, ring, mode)
            yield with_mode(build_E_abp(2, ring), mode)


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_equals_expansion_at_random_points(seed):
    rng = random.Random(1000 + seed)
    for obj in ir_objects(seed):
        poly = expand(obj)
        for _ in range(3):
            point = [rng.randrange(-9, 10) for _ in range(obj.num_variables)]
            assert evaluate(obj, point) == evaluate_sparse(poly, point)


@pytest.mark.parametrize("seed", range(5))
def test_syntactic_degree_bounds_expansion_degree(seed):
    for obj in ir_objects(seed):
        assert syntactic_degree(obj) >= expand(obj).degree()


def test_abp_word_order_survives_only_in_noncommutative_mode():
    abp = build_E_abp(1)
    assert len(expand(abp).terms) == 2  # x1*x2 and x2*x1
    assert len(expand(with_mode(abp, COMMUTATIVE)).terms) == 1  # 2*x1*x2


def test_unreachable_abp_sink_is_zero():
    one = F.one()
    abp = AlgebraicBranchingProgram(
        "cut", F, 1, [[0], [1, 2], [3]],
        [(0, 1, LinearForm(one, {1: one})), (2, 3, LinearForm(one))], 0, 3,
    )
    assert expand(abp).is_zero
    assert evaluate(abp, [5]) == F.zero()


def test_mixed_degree_side_gate_makes_circuit_inhomogeneous():
    # The output x1*x2 is homogeneous; the unread gate x1 + 1 is not.
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2 = cb.var_leaf(1), cb.var_leaf(2)
    cb.gate(2, "add", x1, cb.const_leaf(1))
    cb.set_output(cb.gate(2, "mul", x1, x2))
    assert validate(cb.build()).homogeneous is False


@pytest.mark.parametrize("inner_degree", [1, 2])
def test_copy_gates_keep_the_degree_set_of_their_source(inner_degree):
    # 1*(x1*x2) + (x2*x2 or x2+x2)*1: homogeneous exactly when both have degree 2.
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2 = cb.var_leaf(1), cb.var_leaf(2)
    product = cb.gate(2, "mul", x1, x2)
    other = cb.gate(2, "mul", x2, x2) if inner_degree == 2 else cb.gate(2, "add", x2, x2)
    left = cb.gate(3, "mul", cb.const_leaf(1), product)
    cb.set_output(cb.gate(4, "add", left, cb.copy(3, other)))
    assert validate(cb.build()).homogeneous is (inner_degree == 2)


def _repeated_squares(base: str, squarings: int):
    """(x1 + 1) or x1, squared the given number of times, one layer each."""
    cb = CircuitBuilder(F, COMMUTATIVE, 1)
    x1 = cb.var_leaf(1)
    if base == "x1+1":
        gate = cb.gate(2, "add", x1, cb.const_leaf(1))
    else:
        gate = cb.gate(2, "mul", x1, cb.const_leaf(1))
    for layer in range(3, 3 + squarings):
        gate = cb.gate(layer, "mul", gate, gate)
    cb.set_output(gate)
    return cb.build()


def test_degrees_past_the_old_set_cap_get_an_exact_verdict():
    # (x1+1)^(2^12) has degrees 0..4096, past the degree-set oracle's cap.
    mixed = _repeated_squares("x1+1", 12)
    assert reference_homogeneous(mixed) is None
    assert validate(mixed).homogeneous is False
    # x1^(2^13) has the single degree 8192 at its output.
    pure = _repeated_squares("x1", 13)
    assert reference_homogeneous(pure) is True
    assert validate(pure).homogeneous is True
    assert syntactic_degree(pure) == 2**13


@pytest.mark.parametrize("seed", range(8))
def test_homogeneity_equals_the_degree_set_fold(seed):
    rng = random.Random(4400 + seed)
    verdicts = []
    for ring in (F, RATIONALS):
        for mode in MODES:
            for _ in range(12):
                c = random_layered_circuit(
                    rng,
                    ring,
                    mode,
                    width=rng.randrange(1, 4),
                    num_variables=rng.randrange(1, 4),
                    internal_layers=rng.randrange(1, 5),
                )
                # The staggered copy adds copy gates u*1 and a 1-leaf.
                for circuit in (c, slp_to_circuit(staggerize(c))):
                    want = reference_homogeneous(circuit)
                    got = validate(circuit).homogeneous
                    assert type(got) is bool
                    if want is not None:
                        assert got is want
                    verdicts.append(got)
    assert set(verdicts) == {True, False}


# ---------------------------------------------------------------------------
# expand against the SparsePolynomial fold it replaced

EXPAND_RINGS = (RATIONALS, F, PrimeField(DEFAULT_PRIME))


def outcome(fn, obj, caps):
    """The expansion with its terms in order, or the error raised."""
    try:
        poly = fn(obj, caps)
    except SlpforgeError as exc:
        return type(exc), str(exc)
    return poly, list(poly.terms), [c.value for c in poly.terms.values()]


def assert_expand_matches_reference(obj, caps):
    assert outcome(expand, obj, caps) == outcome(reference_expand, obj, caps)


def fractional_slp(rng, ring, mode, register_count=3, step_count=16):
    """Random program whose constants are fractions over Q."""
    sb = SlpBuilder(ring, mode, 3, register_count=register_count, name="frac")

    def operand():
        kind = rng.randrange(3)
        if kind == 0:
            return sb.reg(rng.randrange(register_count))
        if kind == 1:
            return sb.var(rng.randrange(1, 4))
        return sb.const(Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)))

    for _ in range(step_count):
        sb.apply(rng.randrange(register_count), rng.choice(("add", "mul")), operand(), operand())
    return sb.finish(rng.randrange(register_count))


def expand_objects(seed):
    rng = random.Random(seed)
    for ring in EXPAND_RINGS:
        for mode in MODES:
            yield random_layered_circuit(rng, ring, mode, width=4, num_variables=3)
            yield random_slp(rng, ring, mode, register_count=3, step_count=24)
            yield random_abp(rng, ring, mode)
            yield with_mode(build_E_abp(2, ring), mode)
            yield fractional_slp(rng, ring, mode)
    base = random_slp(rng, RATIONALS, COMMUTATIVE, register_count=2, step_count=12)
    yield from homogeneous_components(base, 6)


def cap_grid(obj):
    full = reference_expand(obj)
    d, t = full.degree(), full.term_count
    for max_degree in (0, 1, d - 1, d):
        for max_terms in (1, t - 1, t):
            yield ExpansionCaps(max_degree=max_degree, max_terms=max_terms)


@pytest.mark.parametrize("seed", range(6))
def test_expand_matches_reference_under_default_caps(seed):
    for obj in expand_objects(seed):
        assert_expand_matches_reference(obj, ExpansionCaps())


@pytest.mark.parametrize("seed", range(3))
def test_expand_matches_reference_at_the_caps(seed):
    for obj in expand_objects(100 + seed):
        for caps in cap_grid(obj):
            assert_expand_matches_reference(obj, caps)


def biting_programs(seed, count):
    """random_slp's biting draws, cycling through the rings and both modes."""
    rng = random.Random(seed)
    for trial in range(count):
        ring = EXPAND_RINGS[trial % len(EXPAND_RINGS)]
        mode = MODES[trial // len(EXPAND_RINGS) % 2]
        yield random_slp(rng, ring, mode, register_count=3, step_count=24, bite=True)


@pytest.mark.parametrize("seed", range(3))
def test_expand_matches_reference_on_programs_that_bite(seed):
    # Deep outputs with fraction constants: several terms per draw, over
    # denominators the kernel carries and reduces at every sum and product.
    terms = []
    for slp in biting_programs(300 + seed, 36):
        assert_expand_matches_reference(slp, ExpansionCaps())
        terms.append(reference_expand(slp).term_count)
    assert statistics.median(terms) >= 5


@pytest.mark.parametrize("seed", range(2))
def test_expand_fails_as_the_reference_does_on_programs_that_bite(seed):
    # Small caps on the same draws: the kernel raises the oracle's
    # exception, message included, or returns its polynomial.
    raised = set()
    for slp in biting_programs(400 + seed, 24):
        full = reference_expand(slp)
        d, t = full.degree(), full.term_count
        for max_degree in sorted({1, d // 2, max(d - 1, 1), d}):
            for max_terms in sorted({1, t // 2 or 1, max(t - 1, 1), t or 1}):
                caps = ExpansionCaps(max_degree=max_degree, max_terms=max_terms)
                want = outcome(reference_expand, slp, caps)
                assert outcome(expand, slp, caps) == want
                raised.add(want[0] if isinstance(want[0], type) else None)
    assert raised == {DegreeCapExceeded, TermCapExceeded, None}


@pytest.mark.parametrize("ring", [RATIONALS, F], ids=["Q", "F101"])
def test_expand_equals_a_sympy_walk(ring):
    # An oracle outside the library: sympy runs each form's own structure.
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    domain = sympy.GF(ring.characteristic) if ring.characteristic else sympy.QQ
    gens = sympy.symbols("x1:4")
    constants = (-2, -1, 1, 2, 3, Fraction(1, 3))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32), st.sampled_from(["circuit", "program", "abp"]))
    def check(seed, kind):
        rng = random.Random(seed)
        if kind == "circuit":
            obj = random_layered_circuit(
                rng, ring, COMMUTATIVE, width=3, num_variables=3, constants=constants
            )
        elif kind == "program":
            obj = random_slp(rng, ring, COMMUTATIVE, register_count=3, constants=constants)
        else:
            obj = random_abp(rng, ring, COMMUTATIVE)
        got = sympy.Poly(sympy_of(sympy, expand(obj), gens), *gens, domain=domain)
        assert got == sympy_program(sympy, obj, gens, domain)

    check()


def difference_circuit(ring, mode):
    """f - f for f = (x1 + x2)(x2 x3) + (x1 + x2)^2, built gate by gate."""
    cb = CircuitBuilder(ring, mode, 3)
    x1, x2, x3 = (cb.var_leaf(i) for i in (1, 2, 3))
    a = cb.gate(2, "add", x1, x2)
    b = cb.gate(2, "mul", x2, x3)
    f = cb.gate(4, "add", cb.gate(3, "mul", a, b), cb.gate(3, "mul", a, a))
    neg = cb.gate(5, "mul", f, cb.const_leaf(-1))
    cb.set_output(cb.gate(6, "add", cb.copy(5, f), neg))
    return cb.build()


@pytest.mark.parametrize("ring", EXPAND_RINGS)
@pytest.mark.parametrize("mode", MODES)
def test_expand_of_a_difference_cancels_to_zero(ring, mode):
    c = difference_circuit(ring, mode)
    assert expand(c).is_zero
    for caps in (ExpansionCaps(), ExpansionCaps(3, 5), ExpansionCaps(3, 4), ExpansionCaps(2, 9)):
        assert_expand_matches_reference(c, caps)


def squaring_chain(ring, squarings):
    """(x1 + x2 + 1)^(2^squarings) as a width-1 program."""
    sb = SlpBuilder(ring, COMMUTATIVE, 2, register_count=1, name="sq")
    sb.load(0, sb.var(1))
    sb.apply(0, "add", sb.reg(0), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.const(1))
    for _ in range(squarings):
        sb.apply(0, "mul", sb.reg(0), sb.reg(0))
    return sb.finish(0)


def test_expand_memory_follows_the_term_cap_not_the_copy_count():
    # The staggered P(3, 3) family circuit holds most of its gates as
    # copies; each shares its source's terms, so expand reaches the term
    # cap long before 512 MB of address space (one term dict per copy
    # would run out of memory first).
    resource = pytest.importorskip("resource")
    limit = 512 << 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < limit:
        pytest.skip("address-space hard limit below 512 MB")
    code = textwrap.dedent(
        f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, ({limit}, {hard}))
        from slpforge.circuits import expand
        from slpforge.errors import TermCapExceeded
        from slpforge.families import FamilyParams, build_P
        from slpforge.polynomials import ExpansionCaps
        try:
            expand(build_P(FamilyParams(3, 3), "circuit"), ExpansionCaps(max_terms=65536))
        except TermCapExceeded:
            print("TermCapExceeded")
        """
    )
    src = str(Path(slpforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.stdout.strip() == "TermCapExceeded", run.stderr[-2000:]


@pytest.mark.parametrize("ring", EXPAND_RINGS)
def test_squaring_chain_at_and_past_the_degree_cap(ring):
    caps = ExpansionCaps(max_degree=8, max_terms=1000)
    at_cap = squaring_chain(ring, 3)
    assert expand(at_cap, caps).degree() == 8
    assert_expand_matches_reference(at_cap, caps)
    past = squaring_chain(ring, 4)
    with pytest.raises(DegreeCapExceeded):
        expand(past, caps)
    assert_expand_matches_reference(past, caps)


@pytest.mark.parametrize("mode", MODES)
def test_one_variable_program_under_degree_cap_zero_is_x1(mode):
    sb = SlpBuilder(F, mode, 1, register_count=1, name="x")
    sb.load(0, sb.var(1))
    caps = ExpansionCaps(max_degree=0)
    x1 = SparsePolynomial.variable(F, mode, 1, 1)
    assert expand(sb.finish(0), caps) == x1
    cb = CircuitBuilder(F, mode, 1)
    cb.set_output(cb.var_leaf(1))
    assert expand(cb.build(), caps) == x1
    assert_expand_matches_reference(sb.finish(0), caps)


@pytest.mark.parametrize("mode", MODES)
def test_copies_add_no_degree_cap_error_to_their_program(mode):
    # r0 stays live across the second step, so the staggered circuit copies
    # x1 + x2 into layer 3.  The copy shares its source's terms instead of
    # multiplying by 1, so under degree cap 0 the circuit expands exactly
    # as its program does.
    sb = SlpBuilder(F, mode, 2, register_count=2)
    sb.apply(0, "add", sb.var(1), sb.var(2))
    sb.apply(1, "add", sb.var(1), sb.var(1))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    slp = sb.finish(0)
    caps = ExpansionCaps(max_degree=0)
    assert expand(slp_to_circuit(slp), caps) == expand(slp, caps)


# ---------------------------------------------------------------------------
# Batched evaluation on every ring

BATCH_PRIMES = (101, (1 << 31) - 1, DEFAULT_PRIME)
BATCH_RINGS = (F, PrimeField((1 << 31) - 1), PrimeField(DEFAULT_PRIME), RATIONALS)
FRACTION_CONSTANTS = (Fraction(1, 2), Fraction(-3, 4), 2, Fraction(5, 3))


def ring_id(ring):
    return str(ring.p) if isinstance(ring, PrimeField) else "Q"


def batch_objects(seed, ring):
    rng = random.Random(seed)
    for mode in MODES:
        yield random_layered_circuit(
            rng, ring, mode, width=3, num_variables=3, constants=FRACTION_CONSTANTS
        )
        yield random_slp(rng, ring, mode, register_count=3, constants=FRACTION_CONSTANTS)
    yield random_abp(rng, ring, COMMUTATIVE)
    yield with_mode(build_E_abp(2, ring), COMMUTATIVE)


def raw_columns(rng, ring, shape):
    """Raw values: residues over F_p, fractions a/b over Q."""
    if isinstance(ring, PrimeField):
        return rng.integers(0, ring.p, size=shape)
    pairs = zip(rng.integers(-20, 21, size=shape).flat, rng.integers(1, 8, size=shape).flat)
    return np.array([Fraction(int(a), int(b)) for a, b in pairs], dtype=object).reshape(shape)


def scalar_values(obj, columns):
    return [evaluate(obj, point.tolist()).value for point in columns.T]


@pytest.mark.parametrize("ring", BATCH_RINGS, ids=ring_id)
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_mod_p_matches_scalar_evaluation(seed, ring):
    # Kept under its first name; it checks evaluate_batch on every ring.
    rng = np.random.default_rng(seed)
    for obj in batch_objects(seed, ring):
        columns = raw_columns(rng, ring, (obj.num_variables, 9))
        # Over F_p every product of residues at its largest.
        columns[:, 0] = ring.p - 1 if isinstance(ring, PrimeField) else Fraction(-7, 3)
        columns[:, 1] = 0
        got = evaluate_batch(obj, columns)
        assert got.dtype == batch_dtype(ring)
        assert got.tolist() == scalar_values(obj, columns)


def test_batch_dtype_is_int64_below_2_to_the_31_only():
    assert batch_dtype(F) == batch_dtype(PrimeField((1 << 31) - 1)) == np.int64
    assert batch_dtype(PrimeField((1 << 31) + 11)) == batch_dtype(RATIONALS) == object


@pytest.mark.parametrize("p", BATCH_PRIMES)
def test_evaluate_mod_p_repeated_squaring_at_minus_one(p):
    ring = PrimeField(p)
    cb = CircuitBuilder(ring, COMMUTATIVE, 2)
    gate = cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2))
    for layer in range(3, 9):
        gate = cb.gate(layer, "mul", gate, gate)
    cb.set_output(cb.gate(9, "add", gate, cb.const_leaf(p - 1)))
    c = cb.build()
    columns = np.array([[p - 1, p - 2, 3], [p - 1, p - 1, 5]])
    assert evaluate_batch(c, columns).tolist() == scalar_values(c, columns)


def test_evaluate_mod_p_constant_output_gives_a_value_per_point():
    for ring, want in ((F, 39), (RATIONALS, 140)):
        cb = CircuitBuilder(ring, COMMUTATIVE, 2)
        cb.var_leaf(1)
        cb.set_output(cb.gate(2, "mul", cb.const_leaf(7), cb.const_leaf(20)))
        c = cb.build()
        columns = np.zeros((2, 5), dtype=np.int64)
        assert evaluate_batch(c, columns).tolist() == [want] * 5


def test_evaluate_mod_p_zero_variables():
    cb = CircuitBuilder(F, COMMUTATIVE, 0)
    cb.set_output(cb.gate(2, "add", cb.const_leaf(100), cb.const_leaf(3)))
    c = cb.build()
    got = evaluate_batch(c, np.empty((0, 4), dtype=np.int64))
    assert got.tolist() == [evaluate(c, []).value] * 4 == [2] * 4


@pytest.mark.parametrize("p", BATCH_PRIMES)
def test_evaluate_batch_reduces_its_inputs(p):
    # As evaluate does: x1 read straight to the output is a residue.
    sb = SlpBuilder(PrimeField(p), COMMUTATIVE, 1, register_count=1)
    sb.load(0, sb.var(1))
    columns = np.array([[-1, p, 2 * p + 3]])
    assert evaluate_batch(sb.finish(0), columns).tolist() == [p - 1, 0, 3]


def test_evaluate_batch_takes_every_modulus_and_checks_the_arity():
    big = PrimeField(DEFAULT_PRIME)
    c = random_layered_circuit(random.Random(3), big, COMMUTATIVE, width=2, num_variables=2)
    columns = np.array([[DEFAULT_PRIME - 1, 2, 0], [DEFAULT_PRIME - 2, 1, 5]])
    assert evaluate_batch(c, columns).tolist() == scalar_values(c, columns)
    f = random_layered_circuit(random.Random(3), F, COMMUTATIVE, width=2, num_variables=2)
    with pytest.raises(ArityMismatch):
        evaluate_batch(f, np.ones((3, 3), dtype=np.int64))
