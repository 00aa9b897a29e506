"""Seeded input generators for the benchmark workloads.

These mirror the shapes of the test-suite generators but live here on
purpose: a refactor of the tests must not shift benchmark inputs.  Every
generator takes a ``random.Random`` and draws from nothing else, so one
seed always yields the same inputs.

Sizes are fixed by the caller (layer sizes, step counts, planted
coefficients are never zero); the seed picks structure only.  That keeps
the cost of one instance nearly the same from seed to seed, which is
what lets a 10-seed spread stay within a few percent.
"""

from __future__ import annotations

import random

from slpforge.circuits import (
    BinGate,
    CircuitBuilder,
    ConstLeaf,
    LayeredCircuit,
    SlpBuilder,
    StraightLineProgram,
)
from slpforge.formulas import FConst, FOp, Formula, FormulaNode, FVar
from slpforge.rings import Ring

from .reference import design_sets, formula_degree, hard_value, sz_points

COMMUTATIVE = "commutative"


def layered_circuit(
    rng: random.Random,
    ring: Ring,
    mode: str,
    layer_sizes: list[int],
    num_variables: int = 4,
    degree_budget: int = 10,
    name: str = "bench",
) -> LayeredCircuit:
    """A valid layered circuit with exactly the given internal layer sizes.

    Operands come from the previous layer or the leaves; a mul that would
    pass the degree budget is demoted to add, as in the test generator.
    The output, the last gate, multiplies two distinct gates of the layer
    below it, so that in noncommutative mode its value depends on the
    order of operands.
    """
    cb = CircuitBuilder(ring, mode, num_variables, name=name)
    degree: dict[int, int] = {}
    leaves = []
    for v in range(1, num_variables + 1):
        gid = cb.var_leaf(v)
        degree[gid] = 1
        leaves.append(gid)
    for value in (rng.randrange(1, 7), rng.randrange(1, 7)):
        gid = cb.const_leaf(value)
        degree[gid] = 0
        leaves.append(gid)

    previous: list[int] = []
    last_layer = len(layer_sizes) + 1
    for layer_index, count in enumerate(layer_sizes, start=2):
        current = []
        for k in range(count):
            if layer_index == last_layer and k == count - 1 and len(previous) > 1:
                left, right = rng.sample(previous, 2)
                op = "mul"
            else:
                pool = leaves + previous
                left = rng.choice(pool)
                right = rng.choice(pool)
                op = rng.choice(("add", "mul"))
            if op == "mul" and degree[left] + degree[right] > degree_budget:
                op = "add"
            gid = cb.gate(layer_index, op, left, right)
            degree[gid] = (
                max(degree[left], degree[right])
                if op == "add"
                else degree[left] + degree[right]
            )
            current.append(gid)
        previous = current
    cb.set_output(previous[-1])
    return cb.build()


def random_slp(
    rng: random.Random,
    ring: Ring,
    register_count: int,
    step_count: int,
    num_variables: int = 3,
    degree_budget: int = 6,
    name: str = "rslp",
) -> StraightLineProgram:
    """A random commutative program whose syntactic degree respects the budget."""
    sb = SlpBuilder(ring, COMMUTATIVE, num_variables, register_count=register_count, name=name)
    degree = [0] * register_count

    def operand():
        kind = rng.randrange(3)
        if kind == 0:
            r = rng.randrange(register_count)
            return sb.reg(r), degree[r]
        if kind == 1:
            return sb.var(rng.randrange(1, num_variables + 1)), 1
        return sb.const(rng.randrange(7)), 0

    written = []
    for _ in range(step_count):
        dest = rng.randrange(register_count)
        if rng.random() < 0.25:
            if rng.random() < 0.5:
                sb.load(dest, sb.var(rng.randrange(1, num_variables + 1)))
                degree[dest] = 1
            else:
                sb.load(dest, sb.const(rng.randrange(7)))
                degree[dest] = 0
        else:
            left, dl = operand()
            right, dr = operand()
            op = rng.choice(("add", "mul"))
            if op == "mul" and dl + dr > degree_budget:
                op = "add"
            sb.apply(dest, op, left, right)
            degree[dest] = max(dl, dr) if op == "add" else dl + dr
        written.append(dest)
    return sb.finish(written[-1])


def planted_root_program(
    rng: random.Random, ring: Ring, n: int, r: int, name: str = "planted"
) -> tuple[StraightLineProgram, list[dict[tuple, int]], int]:
    """P = prod_j (y - f_j) for r random linear f_j with distinct constants.

    Every f_j uses all n variables with a nonzero coefficient, so the
    program size depends on (n, r) only.  Returns the program (over n+1
    variables, y last), each f_j as a reference polynomial
    {((var, exp), ...): coeff}, and f_1(0), the starting root.
    """
    constants = rng.sample(range(1, 40), r)
    nonzero = [c for c in range(-4, 5) if c]
    planted = []
    for j in range(r):
        poly = {(): constants[j]}
        for v in range(1, n + 1):
            poly[((v, 1),)] = rng.choice(nonzero)
        planted.append(poly)

    y = n + 1
    sb = SlpBuilder(ring, COMMUTATIVE, n + 1, register_count=3, name=name)
    acc, factor, scratch = 0, 1, 2
    sb.load(acc, sb.const(1))
    for poly in planted:
        sb.load(factor, sb.var(y))
        for key, coeff in poly.items():
            if not key:
                sb.apply(factor, "add", sb.reg(factor), sb.const(-coeff))
            else:
                ((var, _),) = key
                sb.load(scratch, sb.var(var))
                sb.apply(scratch, "mul", sb.reg(scratch), sb.const(-coeff))
                sb.apply(factor, "add", sb.reg(factor), sb.reg(scratch))
        sb.apply(acc, "mul", sb.reg(acc), sb.reg(factor))
    return sb.finish(acc), planted, constants[0]


def random_formula(
    rng: random.Random,
    ring: Ring,
    depth: int,
    num_variables: int,
    fanin: int,
    degree: int,
) -> Formula:
    """A full alternating commutative formula with an add at the top.

    Every internal node has exactly ``fanin`` children, so the size is
    fixed by (depth, fanin); leaves are drawn until the syntactic degree
    equals ``degree``, which fixes the grid a design-based test uses.
    """

    def leaf() -> FormulaNode:
        if rng.random() < 0.8:
            return FVar(rng.randrange(1, num_variables + 1))
        return FConst(ring.scalar(rng.randrange(1, 4)))

    def node(op: str, remaining: int) -> FormulaNode:
        if remaining == 0:
            return leaf()
        other = "mul" if op == "add" else "add"
        return FOp(op, [node(other, remaining - 1) for _ in range(fanin)])

    while True:
        f = Formula(ring, COMMUTATIVE, num_variables, node("add", depth))
        if formula_degree(f.root) == degree:
            return f


def _copy_node(node: FormulaNode) -> FormulaNode:
    if isinstance(node, FOp):
        return FOp(node.op, [_copy_node(child) for child in node.children])
    return node


def zero_formula(f: Formula) -> Formula:
    """f + (-1) * f, a formula that computes zero without being trivial."""
    negated = FOp("mul", [FConst(f.ring.scalar(-1)), _copy_node(f.root)])
    return Formula(f.ring, f.mode, f.num_variables, FOp("add", [f.root, negated]))


def corrupt_circuit(rng: random.Random, circuit: LayeredCircuit) -> LayeredCircuit:
    """Flip one internal gate between add and mul, or bump one constant."""
    gates = dict(circuit.gates)
    internal = [gid for gid, g in gates.items() if isinstance(g, BinGate)]
    consts = [gid for gid, g in gates.items() if isinstance(g, ConstLeaf)]
    if consts and rng.random() < 0.3:
        gid = rng.choice(consts)
        gates[gid] = ConstLeaf(gates[gid].value + circuit.ring.one())
    else:
        gid = rng.choice(internal)
        g = gates[gid]
        gates[gid] = BinGate("mul" if g.op == "add" else "add", g.left, g.right)
    return LayeredCircuit(
        circuit.name,
        circuit.ring,
        circuit.mode,
        circuit.num_variables,
        circuit.layers,
        gates,
        circuit.output_id,
    )


def late_sz_formula(rng: random.Random, ring: Ring, n: int, trials: int) -> tuple[Formula, int]:
    """x_1 * ... * x_n and a tester seed for it on the sample set {0, 1}.

    The product is nonzero only where every variable is 1, so about one
    trial in 2^n hits.  The seed is drawn until the first hit falls in the
    second half of the trials: a tester that stops early gives a zero
    verdict there and fails the check.
    """
    f = Formula(ring, COMMUTATIVE, n, FOp("mul", [FVar(v) for v in range(1, n + 1)]))
    while True:
        seed = rng.randrange(1 << 30)
        hit = next((t for t, pt in enumerate(sz_points(n, trials, seed, 2)) if all(pt)), None)
        if hit is not None and hit >= trials // 2:
            return f, seed


def late_grid_formula(rng: random.Random, ring: Ring, m: int) -> Formula:
    """A one-variable formula that is zero on the first half of its 2^(q^2) grid.

    With one variable the design has the single set {0, q, 2q, ...}, so
    x_1 is the hard family at the grid coordinates of that set.  The
    formula is c * prod (x_1 - v) over the values v that x_1 takes while
    grid coordinate 0, the slowest in grid order, is 0.  It becomes
    nonzero only after that coordinate turns 1, half way through the grid.
    """
    _, (members,) = design_sets(1, m)
    values = set()
    for rest in range(1 << (len(members) - 1)):
        point = [0] + [rest >> t & 1 for t in range(len(members) - 1)]
        values.add(hard_value(m, point, ring.characteristic))
    factors = [FOp("add", [FVar(1), FConst(ring.scalar(-v))]) for v in sorted(values)]
    scale = FConst(ring.scalar(rng.randrange(1, 7)))
    return Formula(ring, COMMUTATIVE, 1, FOp("mul", [scale] + factors))
