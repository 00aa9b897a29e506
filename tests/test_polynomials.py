"""Sparse polynomial arithmetic in both modes."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from genutil import (
    evaluate_sparse,
    formal_derivative,
    homogeneous_part,
    is_homogeneous,
    random_slp,
    reference_slp_fold,
    substitute_scalar,
)
from slpforge.circuits import CircuitBuilder, expand
from slpforge.errors import (
    ArityMismatch,
    DegreeCapExceeded,
    ModeMismatch,
    ParamError,
    RingMismatch,
    TermCapExceeded,
)
from slpforge.polynomials import (
    COMMUTATIVE,
    DEFAULT_CAPS,
    ExpansionCaps,
    Monomial,
    NONCOMMUTATIVE,
    SparsePolynomial,
    term_algebra,
)
from slpforge.rings import PrimeField, RATIONALS

F = PrimeField(101)


def x(i, mode=COMMUTATIVE, n=4, ring=F):
    return SparsePolynomial.variable(ring, mode, n, i)


def test_commutative_monomials_sort_and_merge():
    m = Monomial.variable(COMMUTATIVE, 3) * Monomial.variable(COMMUTATIVE, 1)
    assert m.key == ((1, 1), (3, 1))
    sq = m * m
    assert sq.key == ((1, 2), (3, 2))
    assert sq.degree == 4
    assert sq.variables() == frozenset({1, 3})


def test_noncommutative_monomials_concatenate():
    w = Monomial.word([1, 2]) * Monomial.word([1])
    assert w.key == (1, 2, 1)
    assert w.degree == 3
    assert Monomial.word([1, 2]) != Monomial.word([2, 1])


def test_mode_mixing_rejected():
    with pytest.raises(ModeMismatch):
        Monomial.word([1]) * Monomial.variable(COMMUTATIVE, 1)
    with pytest.raises(ModeMismatch):
        x(1).add(x(1, mode=NONCOMMUTATIVE))


def test_from_exponents_drops_zeroes():
    m = Monomial.from_exponents({2: 0, 5: 1})
    assert m.key == ((5, 1),)
    assert Monomial.from_exponents({}).key == ()


def test_addition_accumulates_coefficients():
    p = x(1).add(x(1))
    assert p.terms == {Monomial.variable(COMMUTATIVE, 1): F.scalar(2)}
    q = p.sub(p)
    assert q.is_zero


def test_noncommutative_products_keep_order():
    a, b = x(1, NONCOMMUTATIVE), x(2, NONCOMMUTATIVE)
    assert a.mul(b).terms == {Monomial.word([1, 2]): F.one()}
    assert a.mul(b) != b.mul(a)


def test_evaluate_matches_direct_arithmetic():
    p = x(1).mul(x(2)).add(x(3).mul(x(4)))
    point = [F.scalar(v) for v in (1, 2, 3, 4)]
    assert evaluate_sparse(p, point) == F.scalar(14)
    with pytest.raises(ArityMismatch):
        evaluate_sparse(p, point[:3])


def test_rational_polynomials():
    p = SparsePolynomial.variable(RATIONALS, COMMUTATIVE, 1, 1)
    q = p.scale(Fraction(1, 2)).add(p.scale(Fraction(1, 3)))
    (coeff,) = q.terms.values()
    assert coeff.value == Fraction(5, 6)


def test_degree_cap_enforced():
    caps = ExpansionCaps(max_degree=8, max_terms=1 << 20)
    p = x(1)
    for _ in range(3):
        p = p.mul(p, caps)  # degree 8 after three squarings
    with pytest.raises(DegreeCapExceeded):
        p.mul(x(1), caps)


def test_term_cap_enforced():
    caps = ExpansionCaps(max_degree=64, max_terms=10)
    p = x(1).add(x(2)).add(x(3)).add(x(4))
    with pytest.raises(TermCapExceeded):
        p.mul(p, caps).mul(p, caps)


def test_coefficients_in_variable():
    # x1^2*x2 + 3*x1 + 5 split by x1.
    p = (
        x(1).mul(x(1)).mul(x(2))
        .add(x(1).scale(3))
        .add(SparsePolynomial.constant(F, COMMUTATIVE, 4, 5))
    )
    parts = p.coefficients_in(1)
    assert set(parts) == {0, 1, 2}
    assert parts[2] == x(2)
    assert parts[1] == SparsePolynomial.constant(F, COMMUTATIVE, 4, 3)
    assert parts[0] == SparsePolynomial.constant(F, COMMUTATIVE, 4, 5)


def test_substitute_scalar_commutative():
    p = x(1).mul(x(1)).add(x(2))
    q = substitute_scalar(p, 1, 10)
    assert q == x(2).add(SparsePolynomial.constant(F, COMMUTATIVE, 4, 100))


def test_substitute_scalar_noncommutative_keeps_gaps():
    p = x(1, NONCOMMUTATIVE).mul(x(2, NONCOMMUTATIVE)).mul(x(1, NONCOMMUTATIVE))
    q = substitute_scalar(p, 1, 3)
    assert q.terms == {Monomial.word([2]): F.scalar(9)}


def test_formal_derivative():
    # d/dx1 of x1^3 + 2*x1*x2 = 3*x1^2 + 2*x2.
    p = x(1).mul(x(1)).mul(x(1)).add(x(1).mul(x(2)).scale(2))
    d = formal_derivative(p, 1)
    expected = x(1).mul(x(1)).scale(3).add(x(2).scale(2))
    assert d == expected
    assert formal_derivative(p, 1, order=4).is_zero


def test_truncate_and_homogeneous_part():
    p = x(1).mul(x(2)).add(x(3)).add(SparsePolynomial.constant(F, COMMUTATIVE, 4, 7))
    assert p.truncate(1).term_count == 2
    assert homogeneous_part(p, 2) == x(1).mul(x(2))
    assert not is_homogeneous(p)
    assert is_homogeneous(homogeneous_part(p, 2))


def test_variable_bounds_checked():
    with pytest.raises(ParamError):
        SparsePolynomial.variable(F, COMMUTATIVE, 2, 3)
    with pytest.raises(ParamError):
        SparsePolynomial(F, COMMUTATIVE, 1, {Monomial.variable(COMMUTATIVE, 2): 1})


def test_randomized_ring_homomorphism():
    # Evaluation commutes with + and * on random sparse polynomials.
    rng = random.Random(515151)
    n = 3
    for _ in range(25):
        def random_poly():
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                mono = Monomial.from_exponents(
                    {v: rng.randrange(0, 3) for v in range(1, n + 1)}
                )
                terms[mono] = F.scalar(rng.randrange(1, 101))
            return SparsePolynomial(F, COMMUTATIVE, n, terms)

        p, q = random_poly(), random_poly()
        point = [F.scalar(rng.randrange(101)) for _ in range(n)]
        p_at, q_at = evaluate_sparse(p, point), evaluate_sparse(q, point)
        assert evaluate_sparse(p.add(q), point) == p_at + q_at
        assert evaluate_sparse(p.mul(q), point) == p_at * q_at


def test_text_rendering():
    p = x(1).mul(x(1)).scale(3).add(SparsePolynomial.constant(F, COMMUTATIVE, 4, 2))
    assert p.text() == "2 + 3*x1^2"
    w = x(1, NONCOMMUTATIVE).mul(x(2, NONCOMMUTATIVE))
    assert w.text() == "x1*x2"


@pytest.mark.parametrize("mode", [COMMUTATIVE, NONCOMMUTATIVE])
@pytest.mark.parametrize("ring", [F, RATIONALS])
def test_term_algebra_lift_scale_truncate_match_the_polynomial_methods(ring, mode):
    rng = random.Random(37)
    alg = term_algebra(ring, mode, 4, ExpansionCaps(max_degree=8))
    factor = Fraction(-2, 7) if ring is RATIONALS else -2
    for _ in range(20):
        p = SparsePolynomial.zero(ring, mode, 4)
        for _ in range(rng.randrange(1, 6)):
            term = SparsePolynomial.constant(ring, mode, 4, Fraction(rng.randrange(-5, 6), 3))
            for _ in range(rng.randrange(0, 5)):
                term = term.mul(x(rng.randrange(1, 5), mode, ring=ring))
            p = p.add(term)
        raw = alg.lift(p)
        assert alg.wrap(raw) == p
        assert alg.wrap(alg.truncate(raw, 2)) == p.truncate(2)
        assert alg.wrap(alg.scale(raw, factor)) == p.scale(factor)
        assert alg.scale(raw, 0) == alg.zero
    # Over F_101 a factor of 101 is zero, so the terms vanish.
    three, big = alg.const(ring.scalar(3)), alg.const(ring.scalar(303))
    assert alg.scale(three, 101) == (alg.zero if ring is F else big)
    high = x(1, mode, ring=ring)
    for _ in range(8):
        high = high.mul(x(1, mode, ring=ring))
    with pytest.raises(DegreeCapExceeded):
        alg.lift(high)  # degree 9 > 8: its key could carry into the next field
    with pytest.raises(ParamError):
        alg.lift(x(1, mode, n=3, ring=ring))


@pytest.mark.parametrize("mode", [COMMUTATIVE, NONCOMMUTATIVE])
def test_rational_values_are_reduced_numerators_over_one_denominator(mode):
    # Over Q every value is (terms, den) with nonzero int numerators,
    # den > 0 and gcd(den, *numerators) = 1, after every sum and product
    # as after lift, truncate and scale: a polynomial has one value.
    rng = random.Random(41)
    alg = term_algebra(RATIONALS, mode, 3, DEFAULT_CAPS)

    def reduced(value):
        terms, den = value
        assert den > 0 and all(terms.values()) and gcd(den, *terms.values()) == 1
        return value

    def checked(op):
        return lambda a, b: reduced(op(a, b))

    for _ in range(20):
        slp = random_slp(rng, RATIONALS, mode, 3, step_count=24, bite=True)
        value = reference_slp_fold(slp, alg.var, alg.const, checked(alg.add), checked(alg.mul))
        assert alg.lift(alg.wrap(value)) == value
        reduced(alg.truncate(value, 2))
        reduced(alg.scale(value, Fraction(6, 5)))
        assert alg.scale(value, Fraction(1, 3)) == alg.lift(alg.wrap(value).scale(Fraction(1, 3)))


def _outcome(product):
    """A product's polynomial and term order, or the cap error it raised."""
    try:
        poly = product()
    except (DegreeCapExceeded, TermCapExceeded) as exc:
        return type(exc), str(exc)
    return poly, list(poly.terms)


@pytest.mark.parametrize("mode", [COMMUTATIVE, NONCOMMUTATIVE])
@pytest.mark.parametrize(
    "ring", [RATIONALS, F, PrimeField((1 << 61) - 1)], ids=["Q", "F101", "F2^61-1"]
)
def test_term_algebra_products_by_a_constant_are_the_polynomial_products(ring, mode):
    # The kernel scales the other side's terms when one side is a
    # constant.  Values, term order and errors are SparsePolynomial.mul's
    # on either side, also at max_degree 0 and max_terms 0, where a leaf
    # times a constant raises, and past the term cap.
    rng = random.Random(47)
    n = 3
    polys = []
    for _ in range(12):
        p = SparsePolynomial.zero(ring, mode, n)
        for _ in range(rng.randrange(1, 7)):
            term = SparsePolynomial.constant(ring, mode, n, Fraction(rng.randrange(-9, 10), 4))
            for _ in range(rng.randrange(0, 4)):
                term = term.mul(x(rng.randrange(1, n + 1), mode, n=n, ring=ring))
            p = p.add(term)
        polys.append(p)
    polys += [x(i, mode, n=n, ring=ring) for i in range(1, n + 1)]
    values = [ring.scalar(v) for v in (1, -1, 3, Fraction(-5, 6), 0)]
    constants = [SparsePolynomial.constant(ring, mode, n, v) for v in values]
    for caps in (
        DEFAULT_CAPS,
        ExpansionCaps(max_degree=3, max_terms=3),
        ExpansionCaps(max_degree=1, max_terms=1),
        ExpansionCaps(max_degree=0),
        ExpansionCaps(max_terms=0),
        ExpansionCaps(max_degree=0, max_terms=0),
    ):
        alg = term_algebra(ring, mode, n, caps)
        operands = [p for p in polys if p.degree() <= caps.max_degree]
        leaves = [(p, alg.var(i)) for i, p in enumerate(polys[-n:], start=1)]
        pairs = [(p, alg.lift(p)) for p in operands] + leaves
        for c in constants:
            raw_c = alg.lift(c)
            for p, raw in pairs:
                assert _outcome(lambda: alg.wrap(alg.mul(raw, raw_c))) == _outcome(
                    lambda: p.mul(c, caps)
                )
                assert _outcome(lambda: alg.wrap(alg.mul(raw_c, raw))) == _outcome(
                    lambda: c.mul(p, caps)
                )


@pytest.mark.parametrize("ring", [RATIONALS, F], ids=["Q", "F101"])
def test_term_algebra_builds_each_constant_once(ring):
    # Every read of one constant object shares one value per algebra;
    # an equal object gets an equal value, the lifted constant
    # polynomial's, and a scalar of another ring raises on every read.
    alg = term_algebra(ring, COMMUTATIVE, 2, DEFAULT_CAPS)
    for v in (3, -1, Fraction(-5, 6), 0):
        c = ring.scalar(v)
        first = alg.const(c)
        assert alg.const(c) is first
        assert alg.const(ring.scalar(v)) == first
        assert first == alg.lift(SparsePolynomial.constant(ring, COMMUTATIVE, 2, v))
        assert term_algebra(ring, COMMUTATIVE, 2, DEFAULT_CAPS).const(c) == first
    assert alg.const(ring.zero()) == alg.zero
    other = PrimeField(7).scalar(3)
    for _ in range(2):
        with pytest.raises(RingMismatch):
            alg.const(other)


def test_expansion_memory_does_not_grow_with_the_declared_variables():
    # A commutative key is about width * n bits wide, so building all n
    # variables' values up front took memory quadratic in n: x1*x2 over
    # 20,000 declared variables peaked at 414 MB.  Each is built at its
    # first read, once per algebra.
    n = 20_000
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, n)
    cb.set_output(cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2)))
    circuit = cb.build()
    tracemalloc.start()
    try:
        product = expand(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.terms == {Monomial.from_exponents({1: 1, 2: 1}): RATIONALS.one()}
    assert peak < 2_000_000
    alg = term_algebra(RATIONALS, COMMUTATIVE, n, DEFAULT_CAPS)
    assert alg.var(n) is alg.var(n)
    for index in (0, n + 1):
        with pytest.raises(ParamError, match=f"variable x{index} outside 1..{n}"):
            alg.var(index)
