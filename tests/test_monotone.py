"""Monomial-set semantics, occurrence graphs, and family coverage."""

import random

import pytest

from genutil import random_layered_circuit, reference_mon_set
from slpforge.circuits import CircuitBuilder
from slpforge.errors import (
    CapExceeded,
    ModeMismatch,
    NotMonotone,
    ParamError,
    TermCapExceeded,
)
from slpforge.families import (
    FamilyParams,
    _block_formula,
    build_P,
    family_monomial_set,
)
from slpforge.formulas import Formula, fmul
from slpforge.monotone import (
    MonomialSet,
    coverage,
    mon_set,
    mon_var_graph,
)
from slpforge.polynomials import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    ExpansionCaps,
    Monomial,
)
from slpforge.rings import RATIONALS, PrimeField
from slpforge.transforms import depth_to_width


def _sum_times_var():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 3)
    x1, x2, x3 = cb.var_leaf(1), cb.var_leaf(2), cb.var_leaf(3)
    s = cb.gate(2, "add", x1, x2)
    cb.set_output(cb.gate(3, "mul", s, x3))
    return cb.build()


def test_mon_set_sum_times_variable():
    ms = mon_set(_sum_times_var())
    assert {m.text() for m in ms.members} == {"x1*x3", "x2*x3"}
    assert ms.origin_degree_bound == 2


def test_mon_set_zero_circuit():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 1)
    z = cb.const_leaf(0)
    cb.set_output(cb.gate(2, "add", z, z))
    assert mon_set(cb.build()).members == frozenset()


def test_mon_set_family_circuit():
    params = FamilyParams(2, 2)
    c = build_P(params, form="circuit")
    assert mon_set(c).members == family_monomial_set(params)


def test_mon_set_rejects_negative_constant():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 1)
    x = cb.var_leaf(1)
    neg = cb.const_leaf(-1)
    cb.set_output(cb.gate(2, "mul", x, neg))
    with pytest.raises(NotMonotone):
        mon_set(cb.build())


def test_mon_set_rejects_positive_characteristic():
    cb = CircuitBuilder(PrimeField(7), COMMUTATIVE, 1)
    x = cb.var_leaf(1)
    cb.set_output(cb.gate(2, "add", x, x))
    with pytest.raises(NotMonotone):
        mon_set(cb.build())


def test_mon_set_equals_expansion_support():
    rng = random.Random(515)
    for trial in range(20):
        mode = COMMUTATIVE if trial % 2 else NONCOMMUTATIVE
        c = random_layered_circuit(
            rng, RATIONALS, mode, width=rng.randrange(2, 5), internal_layers=3
        )
        assert mon_set(c).members == reference_mon_set(c).members


def _outcome(fn, c, caps):
    try:
        return fn(c, caps).members
    except CapExceeded as err:
        return err


@pytest.mark.parametrize("seed", range(4))
def test_mon_set_equals_the_set_fold_under_caps(seed):
    # Random monotone circuits under tight caps: equal members wherever
    # neither side raises, and a cap error wherever the set fold hits one.
    rng = random.Random(5150 + seed)
    seen = set()
    for trial in range(30):
        mode = COMMUTATIVE if trial % 2 else NONCOMMUTATIVE
        c = random_layered_circuit(
            rng, RATIONALS, mode, width=rng.randrange(1, 5), internal_layers=rng.randrange(1, 5)
        )
        caps = ExpansionCaps(max_degree=rng.randrange(1, 12), max_terms=rng.randrange(1, 40))
        want = _outcome(reference_mon_set, c, caps)
        got = _outcome(mon_set, c, caps)
        if isinstance(want, CapExceeded):
            assert isinstance(got, CapExceeded)
        elif not isinstance(got, CapExceeded):
            assert got == want
        seen.add(isinstance(want, CapExceeded))
    assert seen == {True, False}


@pytest.mark.parametrize("l,k", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_mon_set_equals_the_set_fold_on_the_block_family(l, k):
    c = build_P(FamilyParams(l, k), form="circuit")
    assert mon_set(c).members == reference_mon_set(c).members


def test_mon_set_term_cap():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 4)
    s1 = cb.gate(2, "add", cb.var_leaf(1), cb.var_leaf(2))
    s2 = cb.gate(2, "add", cb.var_leaf(3), cb.var_leaf(4))
    cb.set_output(cb.gate(3, "mul", s1, s2))
    with pytest.raises(TermCapExceeded):
        mon_set(cb.build(), caps=ExpansionCaps(max_terms=3))


def test_monomial_set_validates_bound():
    mono = Monomial.from_exponents({1: 3})
    with pytest.raises(ParamError):
        MonomialSet(COMMUTATIVE, 1, frozenset((mono,)), 2)


def test_graph_shared_variable_joins():
    members = frozenset(
        (Monomial.from_exponents({1: 1, 2: 1}), Monomial.from_exponents({2: 1, 3: 1}))
    )
    g = mon_var_graph(MonomialSet(COMMUTATIVE, 3, members, 2))
    assert len(g.components) == 1
    assert g.components[0].variables == frozenset((1, 2, 3))
    assert len(g.edges) == 4


def test_graph_single_monomial_star():
    members = frozenset((Monomial.from_exponents({1: 1, 2: 1, 3: 1}),))
    g = mon_var_graph(MonomialSet(COMMUTATIVE, 3, members, 3))
    assert len(g.components) == 1
    comp = g.components[0]
    assert comp.variables == frozenset((1, 2, 3))
    assert len(comp.monomials) == 1


def test_graph_constant_monomial_isolated():
    members = frozenset((Monomial.unit(COMMUTATIVE), Monomial.variable(COMMUTATIVE, 1)))
    g = mon_var_graph(MonomialSet(COMMUTATIVE, 1, members, 1))
    assert len(g.components) == 2
    assert g.components[-1].variables == frozenset()


def test_graph_block_components():
    for ell, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        params = FamilyParams(ell, k)
        members = family_monomial_set(params)
        s = MonomialSet(COMMUTATIVE, params.num_variables, members, params.degree)
        g = mon_var_graph(s)
        assert len(g.components) == ell
        block = params.num_variables // ell
        for i, comp in enumerate(g.components):
            lo = i * block + 1
            assert comp.variables == frozenset(range(lo, lo + block))
            for mono in comp.monomials:
                assert mono.variables() <= comp.variables
        assert sum(len(comp.monomials) for comp in g.components) == len(members)


def test_coverage_self():
    params = FamilyParams(2, 2)
    report = coverage(build_P(params, form="circuit"), params)
    assert report.contained
    assert report.fraction == 1


def test_coverage_single_block_is_half():
    params = FamilyParams(2, 2)
    root = fmul(_block_formula(2, 1, 1), _block_formula(2, 1, 5))
    f = Formula(RATIONALS, COMMUTATIVE, params.num_variables, root)
    report = coverage(depth_to_width(f), params)
    assert report.contained
    assert (report.circuit_count, report.family_count) == (4, 8)
    assert report.fraction == 1 / 2


def test_coverage_not_contained():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 4)
    x1 = cb.var_leaf(1)
    t1 = cb.gate(2, "mul", x1, cb.var_leaf(2))
    t2 = cb.gate(2, "mul", x1, cb.var_leaf(3))
    cb.set_output(cb.gate(3, "add", t1, t2))
    report = coverage(cb.build(), FamilyParams(2, 1))
    assert not report.contained
    assert report.circuit_count == 2


def test_coverage_mode_mismatch():
    cb = CircuitBuilder(RATIONALS, NONCOMMUTATIVE, 2)
    cb.set_output(cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2)))
    with pytest.raises(ModeMismatch):
        coverage(cb.build(), FamilyParams(2, 1))
