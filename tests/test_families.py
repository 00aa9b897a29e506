"""Family builders: frozen instances, cross-checks, and capacity errors."""

import random

import pytest

from genutil import evaluate_sparse, formula_expand, is_alternating, random_formula
from slpforge.circuits import ConstLeaf, VarLeaf, evaluate, expand, validate
from slpforge.errors import (
    BadCharacteristic,
    CapacityExceeded,
    FieldTooSmall,
    ParamError,
    TermCapExceeded,
)
from slpforge.families import (
    BenOrParams,
    FamilyParams,
    build_E_abp,
    build_E_width2,
    build_P,
    build_palindrome,
    build_permanent_sparse,
    family_monomial_set,
    permanent_var_index,
    project_to_formula,
)
from slpforge.formulas import (
    Formula,
    fadd,
    fmul,
    fvar,
    substitute_leaves,
)
from slpforge.polynomials import ExpansionCaps, Monomial
from slpforge.rings import RATIONALS, PrimeField


# ---------------------------------------------------------------------------
# Block family

def test_family_params_validation():
    with pytest.raises(ParamError):
        FamilyParams(1, 1)
    with pytest.raises(ParamError):
        FamilyParams(2, 0)
    p = FamilyParams(2, 2)
    assert p.num_variables == 16
    assert p.degree == 4
    assert p.monomial_count == 8


def test_block_family_smallest_instance():
    f = build_P(FamilyParams(2, 1))
    poly = formula_expand(f)
    assert poly.text() == "x1*x2 + x3*x4"


def test_block_family_monomial_counts():
    # (3, 2) genuinely has 81 monomials: one factor choice per block,
    # ell^(1 + ell + ... + ell^(k-1)) in total.
    cases = [((2, 1), 2), ((3, 1), 3), ((2, 2), 8), ((3, 2), 81), ((2, 3), 128)]
    for (ell, k), count in cases:
        params = FamilyParams(ell, k)
        assert params.monomial_count == count
        poly = formula_expand(build_P(params))
        assert len(poly.terms) == count


def test_block_family_formula_shape():
    params = FamilyParams(2, 2)
    f = build_P(params)
    assert f.depth == 2 * params.k
    assert is_alternating(f)
    poly = formula_expand(f)
    assert all(m.degree == params.degree for m in poly.terms)
    assert all(c == 1 for c in poly.terms.values())


def test_block_family_monomial_set_matches_expansion():
    for ell, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        params = FamilyParams(ell, k)
        support = family_monomial_set(params)
        poly = formula_expand(build_P(params))
        assert support == frozenset(poly.terms)


def test_block_family_circuit_form():
    for ell, k in [(2, 2), (3, 2)]:
        params = FamilyParams(ell, k)
        c = build_P(params, form="circuit")
        report = validate(c)
        assert report.width <= 2 * params.k
        assert report.monotone
        assert expand(c) == formula_expand(build_P(params))


def test_build_p_rejects_bad_form():
    with pytest.raises(ParamError):
        build_P(FamilyParams(2, 1), form="abp")


# ---------------------------------------------------------------------------
# Projection

def test_projection_worked_example():
    # x1*x2 + x3 into the 4-variable instance
    f = Formula(RATIONALS, "commutative", 3, fadd(fmul(fvar(1), fvar(2)), fvar(3)))
    mapping = project_to_formula(f, FamilyParams(2, 1))
    one = RATIONALS.one()
    assert mapping == {1: VarLeaf(1), 2: VarLeaf(2), 3: VarLeaf(3), 4: ConstLeaf(one)}


def test_projection_random_roundtrip():
    rng = random.Random(4021)
    params = FamilyParams(3, 2)
    family = build_P(params)
    for trial in range(30):
        depth = rng.randrange(1, 2 * params.k + 1)
        target = random_formula(
            rng, RATIONALS, "commutative", depth, num_variables=5, max_fanin=3
        )
        mapping = project_to_formula(target, params)
        assert set(mapping) == set(range(1, params.num_variables + 1))
        image = substitute_leaves(family, mapping, target.num_variables)
        assert formula_expand(image) == formula_expand(target)


def test_projection_capacity_limits():
    wide = Formula(RATIONALS, "commutative", 3, fadd(fvar(1), fvar(2), fvar(3)))
    with pytest.raises(CapacityExceeded):
        project_to_formula(wide, FamilyParams(2, 1))

    rng = random.Random(7)
    deep = random_formula(rng, RATIONALS, "commutative", 4, max_fanin=2)
    with pytest.raises(CapacityExceeded):
        project_to_formula(deep, FamilyParams(2, 1))


# ---------------------------------------------------------------------------
# Palindromes

def test_palindrome_smallest():
    c = build_palindrome(1)
    assert expand(c).text() == "x1*x1 + x2*x2"


def test_palindrome_length_four():
    words = {m.key for m in expand(build_palindrome(2)).terms}
    assert words == {(1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 2, 2)}


def test_palindrome_structure():
    for n in range(1, 7):
        c = build_palindrome(n)
        report = validate(c)
        assert report.width == 2
        assert report.size <= 12 * n
        assert report.staggered
        assert report.homogeneous
        poly = expand(c)
        assert len(poly.terms) == 2**n
        for mono in poly.terms:
            word = mono.key
            assert len(word) == 2 * n
            assert word == word[::-1]


# ---------------------------------------------------------------------------
# Balanced words

def test_e_abp_smallest():
    abp = build_E_abp(1)
    assert abp.size == 4
    assert expand(abp).text() == "x1*x2 + x2*x1"


def test_e_abp_vertex_count_and_labels():
    for n in range(1, 5):
        abp = build_E_abp(n)
        assert abp.size == (n + 1) ** 2
        assert abp.size <= 4 * n * n
        for _, _, label in abp.edges:
            assert label.constant.is_zero
            assert len(label.coefficients) == 1
        poly = expand(abp)
        for mono in poly.terms:
            word = mono.key
            assert len(word) == 2 * n
            assert sum(1 for letter in word if letter == 1) == n


def test_benor_params_table():
    rows = {
        1: (0, 2, 3, 4, 1),
        2: (1, 4, 5, 12, 1),
        3: (2, 8, 9, 30, 28),
        4: (2, 8, 9, 40, 1),
        5: (3, 16, 17, 90, 8008),
    }
    for n, (k, N, heavy, target, mult) in rows.items():
        p = BenOrParams(n)
        assert (p.k, p.word_length, p.heavy_exponent, p.target_exponent, p.multiplicity) == (
            k, N, heavy, target, mult,
        )
        assert 2 * n <= p.word_length


def test_e_width2_matches_abp():
    ring = PrimeField((1 << 61) - 1)
    for n in (1, 2, 3):
        slp = build_E_width2(BenOrParams(n), ring)
        assert slp.register_count == 2
        direct = expand(build_E_abp(n, ring))
        assert expand(slp) == direct


def test_e_width2_field_errors():
    with pytest.raises(FieldTooSmall):
        build_E_width2(BenOrParams(1), PrimeField(5))
    # multiplicity C(8, 6) = 28 vanishes mod 7
    with pytest.raises(BadCharacteristic):
        build_E_width2(BenOrParams(3), PrimeField(7))


def test_e_width2_evaluation_spot_check():
    ring = PrimeField((1 << 61) - 1)
    slp = build_E_width2(BenOrParams(2), ring)
    # all-ones point counts the balanced words: binom(4, 2) = 6
    assert evaluate(slp, [1, 1]) == ring.scalar(6)


# ---------------------------------------------------------------------------
# Permanent

def test_permanent_small_orders():
    assert build_permanent_sparse(1).text() == "x1"
    assert build_permanent_sparse(2).text() == "x1*x4 + x2*x3"
    p3 = build_permanent_sparse(3)
    assert len(p3.terms) == 6
    for mono in p3.terms:
        rows = sorted((v - 1) // 3 + 1 for v in mono.variables())
        cols = sorted((v - 1) % 3 + 1 for v in mono.variables())
        assert rows == [1, 2, 3] and cols == [1, 2, 3]
    assert evaluate_sparse(p3, [1] * 9) == RATIONALS.scalar(6)


def test_permanent_var_index():
    assert permanent_var_index(3, 1, 1) == 1
    assert permanent_var_index(3, 2, 3) == 6
    with pytest.raises(ParamError):
        permanent_var_index(3, 4, 1)


def test_permanent_term_cap():
    with pytest.raises(TermCapExceeded):
        build_permanent_sparse(4, caps=ExpansionCaps(max_terms=5))
