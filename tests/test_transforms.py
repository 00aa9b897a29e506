"""Depth-to-width, homogeneous slices, y-derivatives, and width-2 compilation."""

import random

import pytest

from genutil import (
    formal_derivative,
    formula_expand,
    homogeneous_part,
    is_alternating,
    random_formula,
    random_slp,
)
from slpforge.circuits import SlpBuilder, expand, slp_to_circuit, validate
from slpforge.errors import (
    CharacteristicTooSmall,
    DegreeBoundViolated,
    FieldTooSmall,
    ModeMismatch,
    NotATree,
)
from slpforge.formulas import FConst, FOp, Formula, FVar, fadd, fconst, fmul, fvar
from slpforge.polynomials import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    Monomial,
    SparsePolynomial,
)
from slpforge.rings import DEFAULT_PRIME, PrimeField, RATIONALS
from slpforge.transforms import (
    depth_to_width,
    homogeneous_components,
    homogeneous_prefix,
    partial_derivative_y,
    sparse_to_width2,
)

F = PrimeField(101)
BIG = PrimeField(DEFAULT_PRIME)


def poly(ring, mode, n, terms):
    return SparsePolynomial(ring, mode, n, terms)


def mono(**exps):
    return Monomial.from_exponents({int(k[1:]): v for k, v in exps.items()})


# ---------------------------------------------------------------------------
# depth_to_width


def test_depth2_sum_of_products():
    f = Formula(F, COMMUTATIVE, 4, fadd(fmul(fvar(1), fvar(2)), fmul(fvar(3), fvar(4))))
    assert f.depth == 2
    c = depth_to_width(f)
    assert c.width <= 2
    assert expand(c) == formula_expand(f)
    assert {m.text() for m in expand(c).terms} == {"x1*x2", "x3*x4"}


def _p22_formula(ring):
    """Sum of two products of two 4-leaf sum-of-products blocks, depth 4."""

    def block(offset):
        return fadd(
            fmul(fvar(offset + 1), fvar(offset + 2)),
            fmul(fvar(offset + 3), fvar(offset + 4)),
        )

    return Formula(
        ring,
        COMMUTATIVE,
        16,
        fadd(
            fmul(block(0), block(4)),
            fmul(block(8), block(12)),
        ),
    )


def test_depth4_block_formula():
    f = _p22_formula(F)
    assert f.depth == 4
    assert is_alternating(f)
    c = depth_to_width(f)
    assert c.width <= 4
    expansion = expand(c)
    assert len(expansion.terms) == 8
    assert expansion == formula_expand(f)


def test_single_leaf_formula():
    f = Formula(F, COMMUTATIVE, 1, fvar(1))
    c = depth_to_width(f)
    assert c.width == 0
    assert expand(c) == poly(F, COMMUTATIVE, 1, {mono(x1=1): 1})


def test_shared_subnode_rejected():
    shared = fmul(fvar(1), fvar(2))
    with pytest.raises(NotATree):
        Formula(F, COMMUTATIVE, 2, fadd(shared, shared))


def test_noncommutative_product_order():
    f = Formula(F, NONCOMMUTATIVE, 3, fmul(fvar(1), fvar(2), fvar(3)))
    c = depth_to_width(f)
    assert [m.key for m in expand(c).monomials()] == [(1, 2, 3)]


def test_monotone_formula_gives_monotone_circuit():
    f = Formula(
        RATIONALS,
        COMMUTATIVE,
        2,
        fadd(fmul(fvar(1), fvar(2)), fconst(RATIONALS, 3)),
    )
    c = depth_to_width(f)
    assert validate(c).monotone


def test_depth_to_width_random_formulas():
    rng = random.Random(23)
    for _ in range(25):
        depth = rng.randrange(1, 5)
        mode = rng.choice((COMMUTATIVE, NONCOMMUTATIVE))
        f = random_formula(rng, F, mode, depth)
        c = depth_to_width(f)
        assert c.width <= max(1, f.depth)
        assert c.size <= (f.depth + 1) * f.size + 2
        assert expand(c) == formula_expand(f)


# ---------------------------------------------------------------------------
# homogeneous_components / homogeneous_prefix


def _slp_for(terms, ring=F, n=2):
    return sparse_to_width2(poly(ring, COMMUTATIVE, n, terms), name="seed")


def test_components_of_mixed_polynomial():
    c = _slp_for({Monomial.unit(COMMUTATIVE): 1, mono(x1=1): 1, mono(x1=1, x2=1): 1})
    parts = [expand(h) for h in homogeneous_components(c, 2)]
    assert parts[0] == poly(F, COMMUTATIVE, 2, {Monomial.unit(COMMUTATIVE): 1})
    assert parts[1] == poly(F, COMMUTATIVE, 2, {mono(x1=1): 1})
    assert parts[2] == poly(F, COMMUTATIVE, 2, {mono(x1=1, x2=1): 1})


def test_components_of_homogeneous_input():
    c = _slp_for({mono(x1=1, x2=1): 1, mono(x3=1, x4=1): 1}, n=4)
    parts = [expand(h) for h in homogeneous_components(c, 2)]
    assert parts[0].is_zero and parts[1].is_zero
    assert parts[2] == expand(c)


def test_component_register_budget():
    rng = random.Random(31)
    c = random_slp(rng, F, COMMUTATIVE, register_count=3, step_count=25)
    for h in homogeneous_components(c, 6):
        assert h.register_count <= c.register_count + 3


def test_components_sum_and_purity_random():
    rng = random.Random(37)
    for _ in range(15):
        w = rng.randrange(1, 5)
        c = random_slp(rng, BIG, COMMUTATIVE, register_count=w, step_count=18)
        full = expand(c)
        m = 6
        assert full.degree() <= m
        parts = [expand(h) for h in homogeneous_components(c, m)]
        for i, part in enumerate(parts):
            assert part == homogeneous_part(full, i)
        total = parts[0]
        for part in parts[1:]:
            total = total.add(part)
        assert total == full


def test_prefix_matches_component_sum():
    rng = random.Random(41)
    c = random_slp(rng, BIG, COMMUTATIVE, register_count=3, step_count=20)
    full = expand(c)
    for k in (0, 2, 4, 6):
        pre = homogeneous_prefix(c, 6, k)
        assert pre.register_count <= c.register_count + 3
        assert expand(pre) == full.truncate(k)


def test_components_reject_noncommutative():
    sb = SlpBuilder(F, NONCOMMUTATIVE, 2, register_count=1)
    sb.load(0, sb.var(1))
    with pytest.raises(ModeMismatch):
        homogeneous_components(sb.finish(0), 2)


def test_components_field_too_small():
    tiny = PrimeField(3)
    sb = SlpBuilder(tiny, COMMUTATIVE, 1, register_count=1)
    sb.load(0, sb.var(1))
    with pytest.raises(FieldTooSmall):
        homogeneous_components(sb.finish(0), 5)


# ---------------------------------------------------------------------------
# partial_derivative_y


def _xy_program():
    """x1*y^2 + y over (x1, y), y = x2."""
    sb = SlpBuilder(F, COMMUTATIVE, 2, register_count=2, name="xyy")
    sb.load(0, sb.var(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(2))
    sb.apply(0, "mul", sb.reg(0), sb.var(1))
    sb.apply(0, "add", sb.reg(0), sb.var(2))
    return sb.finish(0)


def test_derivative_first_order():
    d = partial_derivative_y(_xy_program(), 1, 2)
    assert d.register_count <= 2 + 4
    assert expand(d) == poly(
        F, COMMUTATIVE, 2, {mono(x1=1, x2=1): 2, Monomial.unit(COMMUTATIVE): 1}
    )


def test_derivative_second_order():
    d = partial_derivative_y(_xy_program(), 2, 2)
    assert expand(d) == poly(F, COMMUTATIVE, 2, {mono(x1=1): 2})


def test_derivative_past_degree_is_zero():
    d = partial_derivative_y(_xy_program(), 3, 3)
    assert expand(d).is_zero


def test_derivative_matches_formal_oracle():
    rng = random.Random(43)
    for _ in range(12):
        w = rng.randrange(1, 5)
        c = random_slp(rng, BIG, COMMUTATIVE, register_count=w, step_count=16)
        full = expand(c)
        y = c.num_variables
        r = max(full.coefficients_in(y), default=0)
        j = rng.randrange(0, r + 1) if r else 0
        d = partial_derivative_y(c, j, r)
        assert d.register_count <= c.register_count + 4
        assert expand(d) == formal_derivative(full, y, j)


def test_derivative_characteristic_guard():
    tiny = PrimeField(5)
    sb = SlpBuilder(tiny, COMMUTATIVE, 2, register_count=1)
    sb.load(0, sb.var(2))
    with pytest.raises(CharacteristicTooSmall):
        partial_derivative_y(sb.finish(0), 1, 7)


def test_derivative_degree_bound_guard():
    sb = SlpBuilder(F, COMMUTATIVE, 1, register_count=1, name="ycube")
    sb.load(0, sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.var(1))
    with pytest.raises(DegreeBoundViolated):
        partial_derivative_y(sb.finish(0), 1, 2)


def test_derivative_rejects_noncommutative():
    sb = SlpBuilder(F, NONCOMMUTATIVE, 2, register_count=1)
    sb.load(0, sb.var(2))
    with pytest.raises(ModeMismatch):
        partial_derivative_y(sb.finish(0), 1, 1)


# ---------------------------------------------------------------------------
# sparse_to_width2


def test_width2_product_plus_variable():
    p = poly(F, COMMUTATIVE, 4, {mono(x1=1, x2=1, x3=1): 1, mono(x4=1): 1})
    slp = sparse_to_width2(p)
    assert slp.register_count == 2
    assert expand(slp) == p


def test_width2_zero_polynomial():
    p = SparsePolynomial.zero(F, COMMUTATIVE, 3)
    slp = sparse_to_width2(p)
    assert slp.register_count == 2
    assert slp.step_count == 0
    assert expand(slp).is_zero


def test_width2_word_order():
    p = poly(F, NONCOMMUTATIVE, 2, {Monomial.word([1, 2]): 1})
    slp = sparse_to_width2(p)
    assert [m.key for m in expand(slp).monomials()] == [(1, 2)]


def test_width2_monotone_when_nonnegative():
    p = poly(RATIONALS, COMMUTATIVE, 2, {mono(x1=2): 3, mono(x2=1): 1})
    staggered = slp_to_circuit(sparse_to_width2(p))
    assert validate(staggered).monotone
    assert validate(staggered).staggered


def test_width2_random_polynomials():
    rng = random.Random(47)
    for _ in range(20):
        mode = rng.choice((COMMUTATIVE, NONCOMMUTATIVE))
        n = rng.randrange(1, 5)
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            if mode == COMMUTATIVE:
                key = Monomial.from_exponents(
                    {v: rng.randrange(0, 3) for v in range(1, n + 1)}
                )
            else:
                key = Monomial.word(
                    [rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 5))]
                )
            terms[key] = rng.randrange(1, 11)
        p = poly(F, mode, n, terms)
        slp = sparse_to_width2(p)
        assert slp.register_count == 2
        assert expand(slp) == p
        s = max(1, len(p.terms))
        d = max(1, p.degree())
        assert slp.step_count <= 3 * d * s
