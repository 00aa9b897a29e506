"""Newton series roots and the circuit assembly that replays them."""

import itertools
import random
from fractions import Fraction

import pytest

from genutil import (
    index_bound,
    planted_root_program,
    reference_newton_series_root,
    reference_solve_exact,
    reference_truncated_power_product,
)
from slpforge.circuits import (
    ConstOperand,
    LoadStep,
    RegOperand,
    SlpBuilder,
    VarOperand,
    expand,
)
from slpforge.errors import (
    CapExceeded,
    CharacteristicTooSmall,
    DegenerateRoot,
    DegreeBoundViolated,
    ParamError,
    SizeBudgetExceeded,
    TermCapExceeded,
    UnsolvableSystem,
)
from slpforge.polynomials import (
    COMMUTATIVE,
    ExpansionCaps,
    Monomial,
    SparsePolynomial,
    term_algebra,
)
from slpforge.rings import DEFAULT_PRIME, PrimeField, RATIONALS
from slpforge.rootfind import (
    RootProblem,
    _mixing_values,
    _newton_terms,
    _poly_at_series,
    _power_products,
    _series_algebra,
    _series_inverse,
    _simplex,
    _solve_exact,
    newton_series_root,
    root_circuit,
)

BIG = PrimeField(DEFAULT_PRIME)


def mono(**exps):
    return Monomial.from_exponents({int(k[1:]): v for k, v in exps.items()})


def _program_y_minus_x1_plus_x1x2():
    """P = y - (x1 + x1*x2) over (x1, x2, y)."""
    sb = SlpBuilder(BIG, COMMUTATIVE, 3, register_count=2, name="lin")
    sb.load(0, sb.var(3))
    sb.load(1, sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.var(2))
    sb.apply(1, "add", sb.reg(1), sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.const(-1))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    return sb.finish(0)


def _program_y2_minus_1_plus_x1(ring):
    """P = y^2 - (1 + x1) over (x1, y)."""
    sb = SlpBuilder(ring, COMMUTATIVE, 2, register_count=2, name="sqrt")
    sb.load(0, sb.var(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.const(-1))
    sb.load(1, sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.const(-1))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    return sb.finish(0)


def test_newton_explicit_linear_root():
    rp = RootProblem(_program_y_minus_x1_plus_x1x2(), r=1, m=2, y0=0)
    f = newton_series_root(rp)
    assert f == SparsePolynomial(
        BIG, COMMUTATIVE, 2, {mono(x1=1): 1, mono(x1=1, x2=1): 1}
    )


def test_newton_square_root_series():
    rp = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=2, y0=1)
    f = newton_series_root(rp)
    expected = SparsePolynomial(
        BIG,
        COMMUTATIVE,
        1,
        {
            Monomial.unit(COMMUTATIVE): 1,
            mono(x1=1): Fraction(1, 2),
            mono(x1=2): Fraction(-1, 8),
        },
    )
    assert f == expected
    # Separately confirm f really squares back to 1 + x1 through degree 2.
    square = f.mul(f).truncate(2)
    assert square == SparsePolynomial(
        BIG, COMMUTATIVE, 1, {Monomial.unit(COMMUTATIVE): 1, mono(x1=1): 1}
    )


def test_newton_over_rationals():
    rp = RootProblem(_program_y2_minus_1_plus_x1(RATIONALS), r=2, m=3, y0=1)
    f = newton_series_root(rp)
    assert f.coefficient(mono(x1=3)) == RATIONALS.scalar(Fraction(1, 16))


@pytest.mark.parametrize(
    "ring", [RATIONALS, PrimeField(101), BIG], ids=["Q", "F101", "F2^61-1"]
)
def test_root_constants_are_the_values_of_the_expansion(ring):
    # base_point and xi are read off the unit coefficients; the oracle
    # evaluates the expansion and its y-derivative at (0, y0).
    rng = random.Random(97)
    for t in range(40):
        n, r = 1 + t % 3, 1 + t % 4
        program, _, y0 = planted_root_program(rng, ring, n, r)
        rp = RootProblem(program, r=r, m=2, y0=y0)
        full = expand(program)
        origin = [ring.zero()] * n + [rp.y0]
        assert rp.xi == full.formal_derivative(n + 1).evaluate(origin)
        assert rp.base_point == tuple(
            c.evaluate([ring.zero()] * n) for c in rp.coefficients
        )
        assert full.evaluate(origin).is_zero


def test_degenerate_root_rejected():
    sb = SlpBuilder(BIG, COMMUTATIVE, 1, register_count=1, name="ysq")
    sb.load(0, sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(1))
    with pytest.raises(DegenerateRoot):
        RootProblem(sb.finish(0), r=2, m=2, y0=0)


def test_not_a_root_rejected():
    sb = SlpBuilder(BIG, COMMUTATIVE, 1, register_count=1, name="y1")
    sb.load(0, sb.var(1))
    with pytest.raises(ParamError):
        RootProblem(sb.finish(0), r=1, m=1, y0=5)


def test_degree_bound_enforced():
    sb = SlpBuilder(BIG, COMMUTATIVE, 1, register_count=1, name="ycubed")
    sb.load(0, sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(1))
    with pytest.raises(DegreeBoundViolated):
        RootProblem(sb.finish(0), r=2, m=1, y0=0)


def test_newton_characteristic_guard():
    tiny = PrimeField(3)
    sb = SlpBuilder(tiny, COMMUTATIVE, 2, register_count=1, name="small")
    sb.load(0, sb.var(2))
    rp = RootProblem(sb.finish(0), r=1, m=4, y0=0)
    with pytest.raises(CharacteristicTooSmall):
        newton_series_root(rp)


def test_newton_where_the_characteristic_divides_a_y_exponent():
    # P = y^3 + y - x1 over F_3: the y^3 term drops out of dP/dy, so its
    # scaled coefficient must vanish rather than stay as a zero term.
    f3 = PrimeField(3)
    sb = SlpBuilder(f3, COMMUTATIVE, 2, register_count=2, name="cubic")
    sb.load(0, sb.var(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.var(2))
    sb.load(1, sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.const(-1))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    rp = RootProblem(sb.finish(0), r=3, m=2, y0=0)
    x1 = SparsePolynomial.variable(f3, COMMUTATIVE, 1, 1)
    assert newton_series_root(rp) == reference_newton_series_root(rp) == x1
    alg = _series_algebra(rp)
    assert alg.scale({alg.unit: 1}, 3) == {}
    with pytest.raises(CharacteristicTooSmall):
        root_circuit(rp)


def test_index_set_shape():
    rp = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=2, y0=1)
    alphas = rp.index_set()
    assert len(alphas) == 10  # compositions of <= 2 into 3 slots
    assert len(alphas) <= index_bound(rp) == 16
    assert all(sum(a) <= 2 for a in alphas)


def test_root_circuit_trivial_linear():
    sb = SlpBuilder(BIG, COMMUTATIVE, 2, register_count=1, name="ymx")
    sb.load(0, sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.var(1))
    sb.apply(0, "add", sb.reg(0), sb.var(1))  # y + 2*x1; root f = -2*x1
    program = sb.finish(0)
    rp = RootProblem(program, r=1, m=1, y0=0)
    slp = root_circuit(rp)
    assert slp.register_count <= program.register_count + 6
    assert expand(slp) == newton_series_root(rp)


def test_root_circuit_square_root():
    rp = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=3, y0=1)
    slp = root_circuit(rp)
    assert slp.register_count <= rp.program.register_count + 6
    assert expand(slp) == newton_series_root(rp)


def test_root_circuit_planted_products():
    rng = random.Random(53)
    for _ in range(6):
        n = rng.randrange(1, 4)
        r = rng.choice((2, 3))
        m = rng.randrange(1, 5)
        program, planted, y0 = planted_root_program(rng, BIG, n, r)
        rp = RootProblem(program, r=r, m=m, y0=y0)
        f = newton_series_root(rp)
        assert f == planted[0].truncate(m)
        slp = root_circuit(rp)
        assert slp.register_count == program.register_count + r + 3
        assert expand(slp) == f


def test_root_circuit_budget_trips():
    rp = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=2, y0=1)
    with pytest.raises(SizeBudgetExceeded):
        root_circuit(rp, size_budget=3)


def test_root_circuit_budget_is_exact_at_the_step_count():
    rng = random.Random(29)
    for r, m in ((1, 1), (2, 2), (3, 2)):
        program, _, y0 = planted_root_program(rng, RATIONALS, 2, r)
        rp = RootProblem(program, r=r, m=m, y0=y0)
        steps = root_circuit(rp).step_count
        assert root_circuit(rp, size_budget=steps).step_count == steps
        with pytest.raises(SizeBudgetExceeded, match=f"^assembled {steps} steps"):
            root_circuit(rp, size_budget=steps - 1)


def test_solver_inconsistent_system():
    with pytest.raises(UnsolvableSystem):
        _solve_exact(BIG, [[1], [1]], [0, 1])
    with pytest.raises(UnsolvableSystem):
        _solve_exact(RATIONALS, [[Fraction(1, 2)], [1]], [1, 1])


def test_solver_prefers_zero_free_variables():
    assert _solve_exact(BIG, [[1, 1]], [1]) == [1, 0]
    assert _solve_exact(RATIONALS, [[0, 3, 3]], [Fraction(1, 2)]) == [0, Fraction(1, 6), 0]
    assert _solve_exact(BIG, [[0, 3, 3]], [1]) == [0, pow(3, -1, DEFAULT_PRIME), 0]


def test_index_set_is_the_filtered_product_in_lex_order():
    program, _, y0 = planted_root_program(random.Random(11), BIG, 1, 1)
    for r in range(1, 4):
        for m in range(5):
            rp = RootProblem(program, r=r, m=m, y0=y0)
            expected = [
                alpha
                for alpha in itertools.product(range(m + 1), repeat=r + 1)
                if sum(alpha) <= m
            ]
            assert rp.index_set() == expected
    assert _simplex(1, 3) == [(0,), (1,), (2,), (3,)]
    assert _simplex(0, 3) == [()]


def _program_y2_minus_sum(ring):
    """P = y^2 - (1 + x1 + x2 + x3) over (x1, x2, x3, y): 5 terms."""
    sb = SlpBuilder(ring, COMMUTATIVE, 4, register_count=2, name="sqrt3")
    sb.load(0, sb.var(4))
    sb.apply(0, "mul", sb.reg(0), sb.var(4))
    sb.apply(0, "add", sb.reg(0), sb.const(-1))
    for v in (1, 2, 3):
        sb.load(1, sb.var(v))
        sb.apply(1, "mul", sb.reg(1), sb.const(-1))
        sb.apply(0, "add", sb.reg(0), sb.reg(1))
    return sb.finish(0)


def test_newton_iterate_past_the_term_cap_raises():
    # P itself fits in 8 terms; its square-root series to degree 4 has 35.
    caps = ExpansionCaps(max_terms=8)
    rp = RootProblem(_program_y2_minus_sum(BIG), r=2, m=4, y0=1, caps=caps)
    with pytest.raises(TermCapExceeded):
        newton_series_root(rp)
    with pytest.raises(TermCapExceeded):
        root_circuit(rp)
    roomy = RootProblem(_program_y2_minus_sum(BIG), r=2, m=4, y0=1)
    assert newton_series_root(roomy).term_count == 35


def test_series_helpers_multiply_under_the_caps():
    x = [SparsePolynomial.variable(BIG, COMMUTATIVE, 3, i) for i in (1, 2, 3)]
    one = SparsePolynomial.constant(BIG, COMMUTATIVE, 3, 1)
    u = one.add(x[0]).add(x[1]).add(x[2])  # 1 + x1 + x2 + x3, 4 terms
    alg = term_algebra(BIG, COMMUTATIVE, 3, ExpansionCaps(max_terms=8))
    raw_one, raw_u = alg.lift(one), alg.lift(u)
    with pytest.raises(TermCapExceeded):
        _poly_at_series(alg, [raw_one, raw_one, raw_one], raw_u, 4)
    with pytest.raises(TermCapExceeded):
        _series_inverse(alg, BIG, raw_u, 4)
    with pytest.raises(TermCapExceeded):
        _power_products(alg, [raw_u], [(0,), (1,), (2,)], 4)
    roomy = term_algebra(BIG, COMMUTATIVE, 3, ExpansionCaps())
    products = _power_products(roomy, [roomy.lift(u)], [(0,), (1,), (2,)], 4)
    assert roomy.wrap(products[2]) == u.mul(u)
    inverse = roomy.wrap(_series_inverse(roomy, BIG, roomy.lift(u), 4))
    assert inverse.mul(u).truncate(4) == one


def _random_delta(rng, ring, n):
    """A random polynomial of degree <= 2 over n variables, no constant term."""
    x = [SparsePolynomial.variable(ring, COMMUTATIVE, n, i) for i in range(1, n + 1)]
    acc = SparsePolynomial.zero(ring, COMMUTATIVE, n)
    for _ in range(rng.randrange(1, 4)):
        term = SparsePolynomial.constant(ring, COMMUTATIVE, n, rng.randrange(-3, 4))
        for _ in range(rng.randrange(1, 3)):
            term = term.mul(rng.choice(x))
        acc = acc.add(term)
    return acc


def _raw_power_products(deltas, alphas, m, caps):
    """rootfind._power_products on the lifted deltas, wrapped back."""
    d = deltas[0]
    alg = term_algebra(d.ring, COMMUTATIVE, d.num_variables, caps)
    products = _power_products(alg, [alg.lift(p) for p in deltas], alphas, m)
    return [alg.wrap(g) for g in products]


def test_power_products_equal_the_factor_by_factor_build():
    rng = random.Random(19)
    for ring in (BIG, RATIONALS):
        one = SparsePolynomial.constant(ring, COMMUTATIVE, 2, 1)
        for r in (1, 2, 3):
            deltas = [_random_delta(rng, ring, 2) for _ in range(r + 1)]
            for m in range(5):
                alphas = _simplex(r + 1, m)
                caps = ExpansionCaps()
                expected = [
                    reference_truncated_power_product(deltas, a, m, one, caps) for a in alphas
                ]
                assert _raw_power_products(deltas, alphas, m, caps) == expected


def test_power_products_hit_the_term_cap_where_the_first_build_does():
    rng = random.Random(23)
    one = SparsePolynomial.constant(BIG, COMMUTATIVE, 3, 1)
    for max_terms in (3, 6, 10, 20):
        caps = ExpansionCaps(max_terms=max_terms)
        deltas = [_random_delta(rng, BIG, 3) for _ in range(3)]
        alphas = _simplex(3, 3)
        try:
            expected = [
                reference_truncated_power_product(deltas, a, 3, one, caps) for a in alphas
            ]
        except TermCapExceeded as first:
            with pytest.raises(TermCapExceeded, match=f"^{first}$"):
                _raw_power_products(deltas, alphas, 3, caps)
        else:
            assert _raw_power_products(deltas, alphas, 3, caps) == expected


def _program_y2_plus_x62y_minus_1_plus_x1():
    """P = y^2 + x1^62*y - (1 + x1) over (x1, y), x1^62 by squaring."""
    sb = SlpBuilder(BIG, COMMUTATIVE, 2, register_count=3, name="high")
    sb.load(1, sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.reg(1))
    sb.load(2, sb.const(1))
    sb.apply(2, "mul", sb.reg(2), sb.reg(1))
    for _ in range(4):  # x1^(2 + 4 + 8 + 16 + 32)
        sb.apply(1, "mul", sb.reg(1), sb.reg(1))
        sb.apply(2, "mul", sb.reg(2), sb.reg(1))
    sb.load(0, sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.reg(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.const(-1))
    sb.load(1, sb.var(1))
    sb.apply(1, "mul", sb.reg(1), sb.const(-1))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    return sb.finish(0)


def test_series_products_are_not_held_to_the_degree_cap():
    # Truncation bounds the degree of every series.  The last Newton step
    # multiplies two degree-33 series (66 > 64, the default max_degree),
    # and under max_degree=8 the products for m = 5 reach 10.
    rp = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=33, y0=1)
    assert rp.m > rp.caps.max_degree // 2
    f = newton_series_root(rp)
    assert f.degree() == 33 and f.mul(f).truncate(33) == expand(
        rp.program
    ).coefficients_in(2)[0].neg().truncate(33)
    caps = ExpansionCaps(max_degree=8)
    rp = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=5, y0=1, caps=caps)
    f = newton_series_root(rp)
    assert f.degree() == 5
    assert expand(root_circuit(rp)) == f


def test_high_degree_coefficients_are_not_held_to_the_degree_cap():
    # C_1 = x1^62 fits the default caps, but g * C_1 (degree 66) and
    # delta_0^3 * delta_1 (degree 65) do not, before truncation to m = 4.
    rp = RootProblem(_program_y2_plus_x62y_minus_1_plus_x1(), r=2, m=4, y0=1)
    assert max(c.degree() for c in rp.coefficients) == 62
    sqrt = RootProblem(_program_y2_minus_1_plus_x1(BIG), r=2, m=4, y0=1)
    f = newton_series_root(rp)
    assert f == newton_series_root(sqrt)
    assert expand(root_circuit(rp)) == f
    assert rp.series_caps == ExpansionCaps(max_degree=66, max_terms=1 << 20)


def _reference_mixing(rp, f):
    """The mixing values as first computed: Scalar system, monomial rows."""
    ring = rp.program.ring
    n = rp.num_x_variables
    caps = rp.series_caps
    one = SparsePolynomial.constant(ring, COMMUTATIVE, n, 1)
    deltas = [
        c.sub(SparsePolynomial.constant(ring, COMMUTATIVE, n, rp.base_point[i]))
        for i, c in enumerate(rp.coefficients)
    ]
    g_alpha = [
        reference_truncated_power_product(deltas, alpha, rp.m, one, caps)
        for alpha in rp.index_set()
    ]
    monos = set(f.terms)
    for g in g_alpha:
        monos.update(g.terms)
    monos = sorted(monos, key=Monomial.sort_key)
    matrix = [[g.coefficient(mono) for g in g_alpha] for mono in monos]
    rhs = [f.coefficient(mono) for mono in monos]
    return reference_solve_exact(ring, matrix, rhs)


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(2**31 - 1), BIG])
def test_raw_root_path_equals_the_sparse_polynomial_path(ring):
    # Random planted roots under random term caps.  Where neither path
    # raises, the series and the mixing values agree; the raw path caps
    # sums as well as products, so it may raise where the reference does
    # not, but never the other way round.
    rng = random.Random(61)
    outcomes = {"equal": 0, "both raise": 0, "raw stricter": 0}
    while sum(outcomes.values()) < 40:
        n, r, m = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(0, 5)
        program, planted, y0 = planted_root_program(rng, ring, n, r)
        caps = ExpansionCaps(max_terms=rng.choice((8, 12, 16, 24, 40, 1 << 20)))
        try:
            rp = RootProblem(program, r=r, m=m, y0=y0, caps=caps)
        except CapExceeded:
            continue
        try:
            f_ref = reference_newton_series_root(rp)
            mix_ref = _reference_mixing(rp, f_ref)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                alg = _series_algebra(rp)
                _mixing_values(rp, alg, _newton_terms(rp, alg))
            outcomes["both raise"] += 1
            continue
        try:
            f = newton_series_root(rp)
            alg = _series_algebra(rp)
            mixing = _mixing_values(rp, alg, _newton_terms(rp, alg))
        except CapExceeded:
            outcomes["raw stricter"] += 1
            continue
        assert f == f_ref == planted[0].truncate(m)
        assert [ring.scalar(q) for q in mixing] == mix_ref
        outcomes["equal"] += 1
    assert outcomes["equal"] >= 10 and outcomes["both raise"] >= 3


def test_mixing_system_past_the_term_cap_raises():
    # n = 1, r = 3, m = 2: every series and product has at most 5 terms,
    # but the system has 3 monomial rows and C(6, 4) = 15 columns.
    program, planted, y0 = planted_root_program(random.Random(7), RATIONALS, 1, 3)
    rp = RootProblem(program, r=3, m=2, y0=y0, caps=ExpansionCaps(max_terms=12))
    assert newton_series_root(rp) == planted[0].truncate(2)
    alg = _series_algebra(rp)
    deltas = [alg.lift(c) for c in rp.coefficients]
    assert all(len(g) <= 5 for g in _power_products(alg, deltas, rp.index_set(), 2))
    with pytest.raises(TermCapExceeded, match="mixing system of 3 x 15 = 45 entries"):
        root_circuit(rp)
    roomy = RootProblem(program, r=3, m=2, y0=y0, caps=ExpansionCaps(max_terms=45))
    assert expand(root_circuit(roomy)) == planted[0].truncate(2)


# ---------------------------------------------------------------------------
# sympy as an independent oracle


def _rational(sympy, value):
    value = Fraction(value)
    return sympy.Rational(value.numerator, value.denominator)


def _sympy_program(sympy, program, gens):
    """The polynomial a program computes, by running its steps on sympy Polys."""

    def poly(expr):
        return sympy.Poly(expr, *gens, domain="QQ")

    regs = [poly(0)] * program.register_count

    def read(op):
        if isinstance(op, RegOperand):
            return regs[op.register]
        if isinstance(op, VarOperand):
            return poly(gens[op.index - 1])
        assert isinstance(op, ConstOperand)
        return poly(_rational(sympy, op.value.value))

    for step in program.steps:
        if isinstance(step, LoadStep):
            regs[step.dest] = read(step.source)
        elif step.op == "add":
            regs[step.dest] = read(step.left) + read(step.right)
        else:
            regs[step.dest] = read(step.left) * read(step.right)
    return regs[program.output_register]


def _sympy_series_root(sympy, p, xs, y, y0, m):
    """The root f of p(x, f) = 0 with f(0) = y0, to total degree m.

    Degree d of p(x, f) is linear in the degree-d coefficients of f once
    the lower ones are fixed, so each degree is one linear solve.
    """
    f = _rational(sympy, y0)
    for d in range(1, m + 1):
        exps = [e for e in itertools.product(range(d + 1), repeat=len(xs)) if sum(e) == d]
        unknowns = sympy.symbols(f"c0:{len(exps)}")
        trial = f + sum(c * sympy.Mul(*(x**e for x, e in zip(xs, exp))) for c, exp in zip(unknowns, exps))
        residue = sympy.Poly(sympy.expand(p.as_expr().subs(y, trial)), *xs)
        equations = [residue.coeff_monomial(exp) for exp in exps]
        (solution,) = sympy.solve(equations, unknowns, dict=True)
        f = sympy.expand(trial.subs(solution))
    return f


def _sympy_of(sympy, poly, gens):
    expr = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = _rational(sympy, coeff.value)
        for var, exp in mono.key:
            term *= gens[var - 1] ** exp
        expr += term
    return expr


@pytest.mark.parametrize(
    "case",
    ["sqrt(1+x1)", "planted n=2 r=2", "planted n=1 r=3"],
)
def test_root_path_equals_a_sympy_series_root(case):
    sympy = pytest.importorskip("sympy")
    if case == "sqrt(1+x1)":
        program, r, m, y0 = _program_y2_minus_1_plus_x1(RATIONALS), 2, 4, 1
    else:
        n, r = (2, 2) if case == "planted n=2 r=2" else (1, 3)
        program, _, y0 = planted_root_program(random.Random(61 + n), RATIONALS, n, r)
        y0, m = y0.value, 2
    gens = sympy.symbols(f"x1:{program.num_variables + 1}")
    xs, y = gens[:-1], gens[-1]
    p = _sympy_program(sympy, program, gens)
    want = _sympy_series_root(sympy, p, xs, y, y0, m)
    if case == "sqrt(1+x1)":
        assert want == sympy.series(sympy.sqrt(1 + xs[0]), xs[0], 0, m + 1).removeO()

    rp = RootProblem(program, r=r, m=m, y0=y0)
    assert sympy.expand(_sympy_of(sympy, newton_series_root(rp), xs) - want) == 0
    emitted = _sympy_program(sympy, root_circuit(rp), gens)
    assert sympy.expand(emitted.as_expr() - want) == 0
