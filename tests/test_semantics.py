"""The shared fold: every semantics agrees across circuits, SLPs and ABPs."""

import random

import pytest

from genutil import random_layered_circuit, random_slp, with_mode
from slpforge.circuits import (
    _HOMOGENEITY_SET_CAP,
    AlgebraicBranchingProgram,
    CircuitBuilder,
    LinearForm,
    evaluate,
    expand,
    syntactic_degree,
    validate,
)
from slpforge.families import build_E_abp
from slpforge.polynomials import COMMUTATIVE, MODES
from slpforge.rings import PrimeField, RATIONALS

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


def test_degree_sets_past_the_cap_give_no_verdict():
    cb = CircuitBuilder(F, COMMUTATIVE, 1)
    gate = cb.gate(2, "add", cb.var_leaf(1), cb.const_leaf(1))
    for layer in range(3, 15):  # 12 squarings: degrees 0..4096
        gate = cb.gate(layer, "mul", gate, gate)
    cb.set_output(gate)
    assert 2**12 + 1 > _HOMOGENEITY_SET_CAP
    assert validate(cb.build(check=False)).homogeneous is None
