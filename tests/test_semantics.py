"""The shared fold: every semantics agrees across circuits, SLPs and ABPs."""

import random

import numpy as np
import pytest

from genutil import random_layered_circuit, random_slp, with_mode
from slpforge.circuits import (
    _HOMOGENEITY_SET_CAP,
    AlgebraicBranchingProgram,
    CircuitBuilder,
    LinearForm,
    evaluate,
    evaluate_mod_p,
    expand,
    syntactic_degree,
    validate,
)
from slpforge.errors import ArityMismatch, ParamError, RingMismatch
from slpforge.families import build_E_abp
from slpforge.polynomials import COMMUTATIVE, MODES
from slpforge.rings import DEFAULT_PRIME, PrimeField, RATIONALS

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
            assert evaluate(obj, point) == poly.evaluate(point)


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


def test_degree_sets_past_the_cap_give_no_verdict():
    cb = CircuitBuilder(F, COMMUTATIVE, 1)
    gate = cb.gate(2, "add", cb.var_leaf(1), cb.const_leaf(1))
    for layer in range(3, 15):  # 12 squarings: degrees 0..4096
        gate = cb.gate(layer, "mul", gate, gate)
    cb.set_output(gate)
    assert 2**12 + 1 > _HOMOGENEITY_SET_CAP
    assert validate(cb.build(check=False)).homogeneous is None


# ---------------------------------------------------------------------------
# Batched evaluation over F_p, p < 2^31

BATCH_PRIMES = (101, (1 << 31) - 1)


def batch_objects(seed, ring):
    rng = random.Random(seed)
    for mode in MODES:
        yield random_layered_circuit(rng, ring, mode, width=3, num_variables=3)
        yield random_slp(rng, ring, mode, register_count=3)
    yield random_abp(rng, ring, COMMUTATIVE)
    yield with_mode(build_E_abp(2, ring), COMMUTATIVE)


def scalar_values(obj, columns):
    return [evaluate(obj, [int(v) for v in point]).value for point in columns.T]


@pytest.mark.parametrize("p", BATCH_PRIMES)
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_mod_p_matches_scalar_evaluation(seed, p):
    ring = PrimeField(p)
    rng = np.random.default_rng(seed)
    for obj in batch_objects(seed, ring):
        columns = rng.integers(0, p, size=(obj.num_variables, 9))
        columns[:, 0] = p - 1  # every product of residues at its largest
        columns[:, 1] = 0
        got = evaluate_mod_p(obj, columns, p)
        assert got.dtype == np.int64
        assert got.tolist() == scalar_values(obj, columns)


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
    assert evaluate_mod_p(c, columns, p).tolist() == scalar_values(c, columns)


def test_evaluate_mod_p_constant_output_gives_a_value_per_point():
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    cb.var_leaf(1)
    cb.set_output(cb.gate(2, "mul", cb.const_leaf(7), cb.const_leaf(20)))
    c = cb.build()
    columns = np.zeros((2, 5), dtype=np.int64)
    assert evaluate_mod_p(c, columns, 101).tolist() == [39] * 5


def test_evaluate_mod_p_zero_variables():
    cb = CircuitBuilder(F, COMMUTATIVE, 0)
    cb.set_output(cb.gate(2, "add", cb.const_leaf(100), cb.const_leaf(3)))
    c = cb.build()
    got = evaluate_mod_p(c, np.empty((0, 4), dtype=np.int64), 101)
    assert got.tolist() == [evaluate(c, []).value] * 4 == [2] * 4


def test_evaluate_mod_p_refuses_wide_moduli_and_foreign_rings():
    big = PrimeField(DEFAULT_PRIME)
    c = random_layered_circuit(random.Random(3), big, COMMUTATIVE, width=2, num_variables=2)
    with pytest.raises(ParamError):
        evaluate_mod_p(c, np.ones((2, 3), dtype=np.int64), DEFAULT_PRIME)
    with pytest.raises(RingMismatch):
        evaluate_mod_p(c, np.ones((2, 3), dtype=np.int64), 101)
    q = random_layered_circuit(random.Random(3), RATIONALS, COMMUTATIVE, width=2, num_variables=2)
    with pytest.raises(RingMismatch):
        evaluate_mod_p(q, np.ones((2, 3), dtype=np.int64), 101)
    f = random_layered_circuit(random.Random(3), F, COMMUTATIVE, width=2, num_variables=2)
    with pytest.raises(ArityMismatch):
        evaluate_mod_p(f, np.ones((3, 3), dtype=np.int64), 101)
