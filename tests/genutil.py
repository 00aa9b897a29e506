"""Seeded random generators and small oracles shared across test modules."""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Sequence

from slpforge.circuits import (
    MUL,
    AlgebraicBranchingProgram,
    ApplyStep,
    BinGate,
    CircuitBuilder,
    ConstLeaf,
    LayeredCircuit,
    LinearForm,
    LoadStep,
    Operand,
    RegOperand,
    SlpBuilder,
    StraightLineProgram,
    VarLeaf,
    _GateTable,
    evaluate,
    fold,
    slp_to_circuit,
    syntactic_degree,
    validate,
)
from slpforge.errors import (
    ArityMismatch,
    CapExceeded,
    CharacteristicTooSmall,
    DegreeCapExceeded,
    GridTooLarge,
    InvariantViolation,
    ModeMismatch,
    NotMonotone,
    ParamError,
    SlpforgeError,
    TermCapExceeded,
    UnsolvableSystem,
)
from slpforge.families import permanent_var_index
from slpforge.formulas import FOp, Formula, FormulaNode
from slpforge.monotone import MonomialSet
from slpforge.pit import HardFamily, PermCheckInstance, Verdict, _rng, nw_design
from slpforge.polynomials import (
    COMMUTATIVE,
    DEFAULT_CAPS,
    ExpansionCaps,
    Monomial,
    SparsePolynomial,
)
from slpforge.rings import Ring, Scalar, ScalarLike, poly_eval
from slpforge.rootfind import RootProblem
from slpforge.stagger import (
    LayerMultigraph,
    MultiEdge,
    OrderResult,
    _edge_key,
    staggerize,
)
from slpforge.transforms import _stale_read_registers


def random_layered_circuit(
    rng: random.Random,
    ring: Ring,
    mode: str,
    width: int,
    num_variables: int = 4,
    internal_layers: int = 4,
    degree_budget: int = 10,
    name: str = "rand",
    layer_sizes: list[int] | None = None,
    constants: Sequence[ScalarLike] = range(1, 7),
) -> LayeredCircuit:
    """A valid layered circuit hitting the requested width in some layer.

    Gate operands come from the previous layer or the leaves, and a mul
    whose syntactic degree would pass the budget is demoted to add so
    test oracles can expand the result cheaply.  layer_sizes, when
    given, fixes the internal layer sizes instead of drawing them.
    Constant leaves are drawn from constants.
    """
    cb = CircuitBuilder(ring, mode, num_variables, name=name)
    degree: dict[int, int] = {}
    leaves = []
    for v in range(1, num_variables + 1):
        gid = cb.var_leaf(v)
        degree[gid] = 1
        leaves.append(gid)
    for _ in range(rng.randrange(1, 3)):
        gid = cb.const_leaf(rng.choice(constants))
        degree[gid] = 0
        leaves.append(gid)

    previous: list[int] = []
    last_gate = None
    for k in range(internal_layers if layer_sizes is None else len(layer_sizes)):
        layer_index = k + 2
        if layer_sizes is not None:
            count = layer_sizes[k]
        else:
            # Force full width once so the generator exercises the bound.
            count = width if layer_index == 2 else rng.randrange(1, width + 1)
        current = []
        for _ in range(count):
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
        last_gate = current[-1]
    cb.set_output(last_gate if last_gate is not None else leaves[0])
    return cb.build()


def random_slp(
    rng: random.Random,
    ring: Ring,
    mode: str,
    register_count: int,
    num_variables: int = 3,
    step_count: int = 20,
    degree_budget: int = 6,
    name: str = "rslp",
    constants: Sequence[ScalarLike] = range(7),
    bite: bool = False,
) -> StraightLineProgram:
    """A random program whose syntactic degree respects the budget.

    Constant operands are drawn from constants.  The output is the last
    written register, which a load often sets to a leaf, so most draws
    expand to a term or two.  bite=True draws programs whose polynomials
    bite instead, with the same arguments:
    - a tenth of the steps are loads, not a quarter;
    - an apply into a written register reads it on the left, and three
      in five other operands read a written register (an unwritten one
      reads 0);
    - constants are fractions +-a/b with 1 <= a <= 9 and 1 <= b <= 12,
      and constants is ignored;
    - the output is the register holding the deepest real gate: the
      value an apply step wrote at the greatest operation depth.
    """
    sb = SlpBuilder(ring, mode, num_variables, register_count=register_count, name=name)
    degree = [0] * register_count
    depth = [0] * register_count  # operations below each register's value
    load_share = 0.1 if bite else 0.25

    def constant():
        if bite:
            return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 13))
        return rng.choice(constants)

    def operand():
        if bite:
            # Three in five read a register already written (an unwritten
            # one reads 0), so values build on each other.
            kind = rng.randrange(5) if written else rng.randrange(1, 3)
            if kind in (0, 3, 4):
                r = rng.choice(written)
                return sb.reg(r), degree[r], depth[r]
        else:
            kind = rng.randrange(3)
            if kind == 0:
                r = rng.randrange(register_count)
                return sb.reg(r), degree[r], depth[r]
        if kind == 1:
            return sb.var(rng.randrange(1, num_variables + 1)), 1, 0
        return sb.const(constant()), 0, 0

    written = []
    for _ in range(step_count):
        dest = rng.randrange(register_count)
        if rng.random() < load_share:
            if rng.random() < 0.5:
                sb.load(dest, sb.var(rng.randrange(1, num_variables + 1)))
                degree[dest] = 1
            else:
                sb.load(dest, sb.const(constant()))
                degree[dest] = 0
            depth[dest] = 0
        else:
            if bite and dest in written:
                # Build on the register's own value, as an accumulator.
                left, dl, hl = sb.reg(dest), degree[dest], depth[dest]
            else:
                left, dl, hl = operand()
            right, dr, hr = operand()
            op = rng.choice(("add", "mul"))
            if op == "mul" and dl + dr > degree_budget:
                op = "add"
            sb.apply(dest, op, left, right)
            degree[dest] = max(dl, dr) if op == "add" else dl + dr
            depth[dest] = 1 + max(hl, hr)
        written.append(dest)
    if bite and any(depth):
        return sb.finish(max(range(register_count), key=depth.__getitem__))
    return sb.finish(written[-1] if written else 0)


def random_formula(
    rng: random.Random,
    ring: Ring,
    mode: str,
    depth: int,
    num_variables: int = 4,
    max_fanin: int = 3,
    top_op: str = "add",
) -> Formula:
    """An alternating formula of exactly the requested gate depth."""

    def leaf() -> FormulaNode:
        if rng.random() < 0.8:
            return VarLeaf(rng.randrange(1, num_variables + 1))
        return ConstLeaf(ring.scalar(rng.randrange(3)))

    def node(op: str, remaining: int) -> FormulaNode:
        if remaining == 0:
            return leaf()
        other = "mul" if op == "add" else "add"
        fanin = rng.randrange(1, max_fanin + 1)
        children = [node(other, remaining - 1)]
        for _ in range(fanin - 1):
            children.append(
                node(other, rng.randrange(remaining)) if remaining > 1 else leaf()
            )
        rng.shuffle(children)
        return FOp(op, children)

    if depth == 0:
        return Formula(ring, mode, num_variables, leaf())
    return Formula(ring, mode, num_variables, node(top_op, depth))


def formula_expand(f: Formula) -> SparsePolynomial:
    """Direct recursive expansion, independent of the circuit pipeline."""

    def walk(node: FormulaNode) -> SparsePolynomial:
        if isinstance(node, VarLeaf):
            return SparsePolynomial.variable(f.ring, f.mode, f.num_variables, node.index)
        if isinstance(node, ConstLeaf):
            return SparsePolynomial.constant(f.ring, f.mode, f.num_variables, node.value)
        parts = [walk(child) for child in node.children]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc.add(part) if node.op == "add" else acc.mul(part)
        return acc

    return walk(f.root)


def corrupt_circuit(rng: random.Random, circuit: LayeredCircuit) -> LayeredCircuit:
    """Perturb one gate: flip an op, or bump a constant leaf.

    The result is structurally valid but usually computes a different
    polynomial; callers that need a guaranteed change should compare
    expansions and redraw.
    """
    gates = dict(circuit.gates)
    internal = [
        gid for gid, g in gates.items() if isinstance(g, BinGate)
    ]
    consts = [gid for gid, g in gates.items() if isinstance(g, ConstLeaf)]
    if consts and (not internal or rng.random() < 0.3):
        gid = rng.choice(consts)
        bumped = gates[gid].value + circuit.ring.one()
        gates[gid] = ConstLeaf(bumped)
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


def planted_root_program(
    rng: random.Random,
    ring: Ring,
    n: int,
    r: int,
    name: str = "planted",
) -> tuple[StraightLineProgram, list[SparsePolynomial], object]:
    """P = prod_j (y - f_j) for r random linear f_j with distinct constants.

    Returns the program (over n+1 variables, y last), the list of f_j as
    polynomials in the x variables, and f_1(0) as the starting scalar.
    """
    constants = rng.sample(range(1, 40), r)
    planted = []
    for j in range(r):
        poly = SparsePolynomial.constant(ring, COMMUTATIVE, n, constants[j])
        for v in range(1, n + 1):
            coeff = rng.randrange(-4, 5)
            if coeff:
                poly = poly.add(
                    SparsePolynomial.variable(ring, COMMUTATIVE, n, v).scale(coeff)
                )
        planted.append(poly)

    y = n + 1
    sb = SlpBuilder(ring, COMMUTATIVE, n + 1, register_count=3, name=name)
    acc, factor, scratch = 0, 1, 2
    sb.load(acc, sb.const(1))
    for poly in planted:
        # factor := y - f_j, accumulated term by term
        sb.load(factor, sb.var(y))
        for mono in poly.monomials():
            coeff = poly.terms[mono]
            if mono.degree == 0:
                sb.apply(factor, "add", sb.reg(factor), sb.const(-coeff))
            else:
                (var,) = mono.variables()
                sb.load(scratch, sb.var(var))
                sb.apply(scratch, "mul", sb.reg(scratch), sb.const(-coeff))
                sb.apply(factor, "add", sb.reg(factor), sb.reg(scratch))
        sb.apply(acc, "mul", sb.reg(acc), sb.reg(factor))
    program = sb.finish(acc)
    return program, planted, evaluate_sparse(planted[0], [0] * n)


def linear_form_value(label: LinearForm, point: list[Scalar]) -> Scalar:
    """constant + sum of coefficient*x_i at the point, term by term."""
    acc = label.constant
    for var, coeff in label.coefficients.items():
        acc = acc + coeff * point[var - 1]
    return acc


def with_mode(abp: AlgebraicBranchingProgram, mode: str) -> AlgebraicBranchingProgram:
    """The same branching program, expanded in the given mode."""
    return AlgebraicBranchingProgram(
        abp.name, abp.ring, abp.num_variables, abp.layers, abp.edges,
        abp.source, abp.sink, mode=mode,
    )


def _connected_without(edges: list[MultiEdge], skip: MultiEdge, start: int, goal: int) -> bool:
    """Is goal reachable from start when one copy of skip is removed?"""
    adjacency: dict[int, list[int]] = {}
    skipped = False
    for e in edges:
        if not skipped and e == skip:
            skipped = True
            continue
        adjacency.setdefault(e.u, []).append(e.v)
        adjacency.setdefault(e.v, []).append(e.u)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        if x == goal:
            return True
        for y in adjacency.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return goal in seen


def _components(edges: list[MultiEdge]) -> list[set[int]]:
    """Vertex sets of the connected components: each edge merges every set it touches."""
    groups: list[set[int]] = []
    for e in edges:
        joined = {e.u, e.v}
        rest = []
        for group in groups:
            if group & joined:
                joined |= group
            else:
                rest.append(group)
        groups = rest + [joined]
    return groups


def reference_order_edges(graph: LayerMultigraph) -> OrderResult:
    """The scheduler as first written: one reachability search per candidate edge.

    Kept as the oracle for stagger.order_edges, which must return the
    same OrderResult.  About O(E^3) per layer.
    """
    remaining = list(graph.edges)

    def degree(x: int) -> int:
        return sum((e.u == x) + (e.v == x) for e in remaining)

    def nonisolated() -> int:
        alive = set()
        for e in remaining:
            alive.add(e.u)
            alive.add(e.v)
        return len(alive)

    components = _components(remaining)

    def is_acyclic(comp: set[int]) -> bool:
        count = sum(1 for e in remaining if e.u in comp)
        return count == len(comp) - 1

    components.sort(key=lambda comp: (0 if is_acyclic(comp) else 1, min(comp)))

    order: list[MultiEdge] = []
    census = [nonisolated()]
    removed = 0
    for comp in components:
        while True:
            local = [e for e in remaining if e.u in comp]
            if not local:
                break
            non_cut = [
                e
                for e in local
                if e.is_loop or _connected_without(local, e, e.u, e.v)
            ]
            if non_cut:
                e = min(non_cut, key=_edge_key)
            else:
                leafy = [e for e in local if degree(e.u) == 1 or degree(e.v) == 1]
                e = min(leafy, key=_edge_key)
            ni_before = nonisolated()
            remaining.remove(e)
            freed = {x for x in (e.u, e.v) if degree(x) == 0}
            fresh = e.is_loop or not freed
            census.append(removed + ni_before + (1 if fresh else 0))
            removed += 1
            order.append(e)
    return OrderResult(tuple(order), tuple(census))


def reference_schwartz_zippel(
    c,
    trials: int,
    degree_bound: int | None = None,
    seed: int = 0,
    sample_size: int | None = None,
) -> Verdict:
    """The randomized tester as first written: one scalar evaluate per trial.

    Kept as the oracle for pit.schwartz_zippel, which must return an
    equal Verdict, witness included.
    """
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("point sampling tests commutative circuits only")
    if trials < 1:
        raise ParamError(f"trials must be >= 1, got {trials}")
    if degree_bound is None:
        degree_bound = syntactic_degree(c)
    if sample_size is None:
        sample_size = max(1, 2 * degree_bound)
    points = c.ring.sample_points(sample_size)
    rng = _rng(seed)
    for _ in range(trials):
        indices = rng.integers(0, sample_size, size=c.num_variables)
        assignment = [points[i] for i in indices]
        if not evaluate(c, assignment).is_zero:
            return Verdict("nonzero", tuple(assignment))
    return Verdict("zero")


def reference_nw_pit(
    c,
    hf: HardFamily,
    m: int,
    sample_size: int | None = None,
    grid_budget: int = 1_000_000,
) -> Verdict:
    """The grid tester as first written: one scalar evaluate per grid point.

    Kept as the oracle for pit.nw_pit, which must return an equal
    Verdict, witness included.
    """
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("the grid tester handles commutative circuits only")
    design = nw_design(c.num_variables, m)
    if sample_size is None:
        sample_size = syntactic_degree(c) * m + 1
    universe = design.universe_size
    if sample_size**universe > grid_budget:
        raise GridTooLarge(
            f"grid {sample_size}^{universe} exceeds budget {grid_budget}"
        )
    ring = c.ring
    points = ring.sample_points(sample_size)
    ordered = [sorted(s) for s in design.sets]

    # P_m restricted to a set depends on m coordinates only; cache per set.
    caches: list[dict[tuple[int, ...], Scalar]] = [{} for _ in ordered]

    def inner(i: int, grid_point: tuple[int, ...]) -> Scalar:
        key = tuple(grid_point[u] for u in ordered[i])
        cache = caches[i]
        if key not in cache:
            cache[key] = hf.evaluate(m, ring, [points[t] for t in key])
        return cache[key]

    for grid_point in itertools.product(range(sample_size), repeat=universe):
        assignment = [inner(i, grid_point) for i in range(c.num_variables)]
        if not evaluate(c, assignment).is_zero:
            witness = tuple(points[t] for t in grid_point)
            return Verdict("nonzero", witness)
    return Verdict("zero")


def reference_expand(obj, caps: ExpansionCaps = DEFAULT_CAPS) -> SparsePolynomial:
    """The expansion as first written: fold over SparsePolynomial add/mul.

    Kept as the oracle for circuits.expand, which must return an equal
    polynomial or raise the same exception class.
    """
    ring, mode, n = obj.ring, obj.mode, obj.num_variables
    return fold(
        obj,
        lambda i: SparsePolynomial.variable(ring, mode, n, i),
        lambda c: SparsePolynomial.constant(ring, mode, n, c),
        lambda a, b: a.add(b, caps),
        lambda a, b: a.mul(b, caps),
    )


def reference_slp_fold(slp: StraightLineProgram, var, const, add, mul):
    """fold over a program as first written: every step runs, read or not.

    Kept as the oracle for circuits.fold, which runs the live steps
    alone and must give the same output in every algebra.
    """
    regs = [const(slp.ring.zero())] * slp.register_count

    def operand(op: Operand):
        if isinstance(op, RegOperand):
            return regs[op.register]
        if isinstance(op, VarLeaf):
            return var(op.index)
        return const(op.value)

    for step in slp.steps:
        if isinstance(step, LoadStep):
            regs[step.dest] = operand(step.source)
        else:
            op = add if step.op == "add" else mul
            regs[step.dest] = op(operand(step.left), operand(step.right))
    return regs[slp.output_register]


def reference_live_steps(program: StraightLineProgram) -> list[int]:
    """Indices of the steps the output reads, by a DFS over def-use edges.

    A step uses the step that last wrote each register it reads, and the
    output uses the last writer of the output register.
    """
    writer: dict[int, int] = {}
    uses: list[list[int]] = []
    for j, step in enumerate(program.steps):
        operands = (step.left, step.right) if isinstance(step, ApplyStep) else ()
        uses.append([
            writer[op.register]
            for op in operands
            if isinstance(op, RegOperand) and op.register in writer
        ])
        writer[step.dest] = j
    live: set[int] = set()
    stack = [writer[program.output_register]] if program.output_register in writer else []
    while stack:
        j = stack.pop()
        if j not in live:
            live.add(j)
            stack += uses[j]
    return sorted(live)


def without_dead_steps(program: StraightLineProgram) -> StraightLineProgram:
    """The program with only the steps reference_live_steps keeps."""
    return StraightLineProgram(
        program.name,
        program.ring,
        program.mode,
        program.num_variables,
        program.register_count,
        [program.steps[j] for j in reference_live_steps(program)],
        program.output_register,
    )


def program_digest(program: StraightLineProgram) -> str:
    """sha256 of a program's text: name, ring, mode, registers, steps, output."""

    def text(op: Operand) -> str:
        if isinstance(op, RegOperand):
            return f"r{op.register}"
        if isinstance(op, VarLeaf):
            return f"x{op.index}"
        return op.value.text()

    lines = [
        f"{program.name} {program.ring.characteristic} {program.mode}"
        f" {program.num_variables} {program.register_count} {program.output_register}"
    ]
    for step in program.steps:
        if isinstance(step, LoadStep):
            lines.append(f"load r{step.dest} {text(step.source)}")
        else:
            lines.append(f"{step.op} r{step.dest} {text(step.left)} {text(step.right)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_HOMOGENEITY_SET_CAP = 4096


def reference_homogeneous(circuit: LayeredCircuit) -> bool | None:
    """validate's homogeneity check as first written: a fold over degree sets.

    Kept as the oracle for ValidationReport.homogeneous, which must give
    the same verdict wherever this one gives any: None means a degree set
    grew past the cap.
    """
    # Syntactic homogeneity: possible total degrees per gate, add unions,
    # mul takes sumsets.  Abandon (None) if a set grows past the cap.
    widest = 1

    def degrees(ds: frozenset[int]) -> frozenset[int]:
        nonlocal widest
        widest = max(widest, len(ds))
        if widest > _HOMOGENEITY_SET_CAP:
            raise CapExceeded("degree set past the homogeneity cap")
        return ds

    constant, linear = frozenset((0,)), frozenset((1,))

    def sumset(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        # {0} + B = B, which degrees() has already seen: copy gates u*1.
        if a == constant:
            return b
        if b == constant:
            return a
        # |A+B| >= |A|+|B|-1 for integer sets: refuse before the product.
        if len(a) + len(b) - 1 > _HOMOGENEITY_SET_CAP:
            raise CapExceeded("degree set past the homogeneity cap")
        return degrees(frozenset(x + y for x in a for y in b))

    try:
        fold(
            circuit,
            lambda i: linear,
            lambda c: constant,
            lambda a, b: degrees(a | b),
            sumset,
        )
    except CapExceeded:
        return None
    return widest == 1


def reference_mon_set(c: LayeredCircuit, caps: ExpansionCaps = DEFAULT_CAPS) -> MonomialSet:
    """mon_set as first written: a fold over monomial sets.

    Kept as the oracle for monotone.mon_set, which must return the same
    members wherever neither raises, and raise a CapExceeded wherever
    this one does.
    """
    report = validate(c)
    if not report.monotone:
        raise NotMonotone("set semantics require a monotone circuit")
    unit = frozenset((Monomial.unit(c.mode),))
    empty: frozenset[Monomial] = frozenset()

    def products(left: frozenset[Monomial], right: frozenset[Monomial]) -> frozenset[Monomial]:
        out = set()
        for a in left:
            for b in right:
                mono = a * b
                if mono.degree > caps.max_degree:
                    raise DegreeCapExceeded(
                        f"support monomial degree {mono.degree} "
                        f"exceeds cap {caps.max_degree}"
                    )
                out.add(mono)
                if len(out) > caps.max_terms:
                    raise TermCapExceeded(
                        f"support grew past {caps.max_terms} monomials"
                    )
        return frozenset(out)

    members = fold(
        c,
        lambda i: frozenset((Monomial.variable(c.mode, i),)),
        lambda value: empty if value.is_zero else unit,
        operator.or_,
        products,
    )
    bound = max((m.degree for m in members), default=0)
    return MonomialSet(c.mode, c.num_variables, members, bound)


def _one_leaves(circuit: LayeredCircuit) -> frozenset[int]:
    """Ids of the leaves holding the constant 1: the oracles' own copy rule."""
    gates, one = circuit.gates, circuit.ring.one()
    return frozenset(
        gid
        for gid in circuit.layers[0]
        if isinstance(gates[gid], ConstLeaf) and gates[gid].value == one
    )


def _copy_source(g, ones: frozenset[int]) -> int | None:
    """u for a copy gate u*1 or 1*u, None for any other gate."""
    if not isinstance(g, BinGate) or g.op != MUL:
        return None
    if g.left in ones:
        return g.right
    if g.right in ones:
        return g.left
    return None


def reference_slp_to_circuit(slp: StraightLineProgram, name: str | None = None) -> LayeredCircuit:
    """slp_to_circuit as first written: one builder call per copy gate.

    Kept as the oracle for circuits.slp_to_circuit, which must return a
    circuit with the same gate ids, layers and leaves.  Copies are built
    with CircuitBuilder.gate, not CircuitBuilder.copy, so the oracle does
    not share the bulk copy path it checks.  Copies come in ascending
    register order, and an unwritten register is bound to the 0-leaf
    only when it is read.
    """
    b = CircuitBuilder(slp.ring, slp.mode, slp.num_variables, name or slp.name)

    # Liveness per step: registers read strictly later, plus the output.
    live_after: list[set[int]] = []
    live: set[int] = {slp.output_register}
    for step in reversed(slp.steps):
        live_after.append(set(live))
        live.discard(step.dest)
        operands = (step.source,) if isinstance(step, LoadStep) else (step.left, step.right)
        for op in operands:
            if isinstance(op, RegOperand):
                live.add(op.register)
    live_after.reverse()

    def leaf_for(op: Operand) -> int:
        if isinstance(op, VarLeaf):
            return b.var_leaf(op.index)
        if isinstance(op, ConstLeaf):
            return b.const_leaf(op.value)
        raise ParamError(f"not a leaf operand: {op!r}")

    # binding: register -> (gate id, is_leaf).  Unwritten registers are zero.
    binding: dict[int, tuple[int, bool]] = {}
    zero_leaf: int | None = None
    one_leaf: int | None = None
    layer = 1

    def gate_of(reg: int) -> tuple[int, bool]:
        nonlocal zero_leaf
        if reg not in binding:
            if zero_leaf is None:
                zero_leaf = b.const_leaf(0)
            binding[reg] = (zero_leaf, True)
        return binding[reg]

    def copy(layer: int, source: int) -> int:
        nonlocal one_leaf
        if one_leaf is None:
            one_leaf = b.const_leaf(1)
        return b.gate(layer, MUL, source, one_leaf)

    for idx, step in enumerate(slp.steps):
        if isinstance(step, LoadStep):
            binding[step.dest] = (leaf_for(step.source), True)
            continue
        operand_ids = []
        for op in (step.left, step.right):
            if isinstance(op, RegOperand):
                operand_ids.append(gate_of(op.register)[0])
            else:
                operand_ids.append(leaf_for(op))
        layer += 1
        new_gate = b.gate(layer, step.op, operand_ids[0], operand_ids[1])
        next_binding: dict[int, tuple[int, bool]] = {}
        for reg in sorted(live_after[idx]):
            if reg == step.dest or reg not in binding:
                continue
            gid, is_leaf = gate_of(reg)
            if is_leaf:
                next_binding[reg] = (gid, True)
            else:
                next_binding[reg] = (copy(layer, gid), False)
        next_binding[step.dest] = (new_gate, False)
        binding = next_binding

    out_gid, _ = gate_of(slp.output_register)
    b.set_output(out_gid)
    return b.build()


def reference_circuit_to_slp(circuit: LayeredCircuit, name: str | None = None) -> StraightLineProgram:
    """circuit_to_slp as an interval scan: O(steps^2), with no liveness pass.

    Kept as the oracle for circuits.circuit_to_slp, which must return the
    same steps over the same registers.  The steps are each layer's real
    gates, then its copies of leaves; a copy of a gate holds its source's
    value.  Steps nothing reads are removed until none is left.  Each
    step writes the least register that holds no value a later step
    still reads, the output counting as read after the last step.
    """
    report = validate(circuit)
    if not report.staggered:
        raise ParamError("circuit is not staggered")
    gates, ones = circuit.gates, _one_leaves(circuit)
    leaf_ids = set(circuit.layers[0])

    # steps: (gate, op, operands), each operand a leaf id or the gate
    # whose step computes the value read.
    value: dict[int, int] = {}
    steps: list[tuple[int, str, list[int]]] = []
    for layer in circuit.layers[1:]:
        sources = {gid: _copy_source(gates[gid], ones) for gid in layer}
        real = [gid for gid in layer if sources[gid] is None]
        for gid in layer:
            source = sources[gid]
            if source in leaf_ids:
                real.append(gid)
            elif source is not None:
                value[gid] = value[source]
        for gid in real:
            g = gates[gid]
            refs = [ref if ref in leaf_ids else value[ref] for ref in (g.left, g.right)]
            steps.append((gid, g.op, refs))
            value[gid] = gid
    output = None if circuit.output_id in leaf_ids else value[circuit.output_id]
    # Remove every step whose value neither the output nor another step
    # reads, and again, until no such step is left.
    while True:
        read = {ref for _, _, refs in steps for ref in refs}
        kept = [step for step in steps if step[0] == output or step[0] in read]
        if len(kept) == len(steps):
            break
        steps = kept

    def last_read(i: int) -> int:
        """Index of the last step that reads step i's value: its own if none does."""
        gid = steps[i][0]
        if gid == output:
            return len(steps)
        return max((j for j in range(i + 1, len(steps)) if gid in steps[j][2]), default=i)

    sb = SlpBuilder(circuit.ring, circuit.mode, circuit.num_variables, name=name or circuit.name)
    register_of: dict[int, int] = {}
    held_until: dict[int, int] = {}  # register -> last read of the value it holds
    for k, (gid, op, refs) in enumerate(steps):
        operands = [
            gates[ref] if ref in leaf_ids else sb.reg(register_of[ref])
            for ref in refs
        ]
        dest = next(r for r in itertools.count() if held_until.get(r, k) <= k)
        sb.apply(dest, op, operands[0], operands[1])
        register_of[gid] = dest
        held_until[dest] = last_read(k)

    if output is None:
        sb.load(0, gates[circuit.output_id])
        return sb.finish(0)
    return sb.finish(register_of[output])


def cone_steps(circuit: LayeredCircuit) -> int:
    """The steps a program for circuit needs, counted by a DFS from the output.

    Each internal gate the output depends on is one step, except a copy
    of an internal gate, which holds its source's value.
    """
    leaves, copies = set(circuit.layers[0]), circuit.gates.copies
    return sum(gid not in copies or copies[gid] in leaves for gid in _cone(circuit) - leaves)


def _cone(circuit: LayeredCircuit) -> set[int]:
    """The output and every gate it reads, by a DFS that stops at the leaves."""
    leaves = set(circuit.layers[0])
    cone: set[int] = set()
    stack = [circuit.output_id]
    while stack:
        gid = stack.pop()
        if gid not in cone:
            cone.add(gid)
            if gid not in leaves:
                g = circuit.gates[gid]
                stack += [g.left, g.right]
    return cone


def cone_circuit(circuit: LayeredCircuit) -> LayeredCircuit:
    """The output's cone of circuit, rebuilt with CircuitBuilder.

    The cone is the output and every gate it reads, through operands and
    copy sources, down to the leaves.  Each cone gate keeps its layer and
    its place in the layer; layers above the output's go.  The builder
    numbers the gates afresh, layer by layer in layer order, so where ids
    increase along each layer, as in every CircuitBuilder circuit, any
    two gates of one layer compare as before.  Name, ring, mode and
    variable count are the circuit's.
    """
    copies, cone = circuit.gates.copies, _cone(circuit)
    cb = CircuitBuilder(circuit.ring, circuit.mode, circuit.num_variables, name=circuit.name)
    new: dict[int, int] = {}
    for layer_index, layer in enumerate(circuit.layers, start=1):
        for gid in filter(cone.__contains__, layer):
            g = circuit.gates[gid]
            if gid in copies:
                new[gid] = cb.copy(layer_index, new[copies[gid]])
            elif isinstance(g, VarLeaf):
                new[gid] = cb.var_leaf(g.index)
            elif isinstance(g, ConstLeaf):
                new[gid] = cb.const_leaf(g.value)
            else:
                new[gid] = cb.gate(layer_index, g.op, new[g.left], new[g.right])
    cb.set_output(new[circuit.output_id])
    return cb.build()


def peak_live_values(program: StraightLineProgram) -> int:
    """The most values a program holds at once, read off its steps alone.

    Step j's value is held at step t >= j when t == j, when it is the
    output, or when a step after t reads it; a step may overwrite what
    it reads for the last time.
    """
    writer: dict[int, int] = {}
    reads: list[set[int]] = []
    for step in program.steps:
        operands = (step.left, step.right) if isinstance(step, ApplyStep) else ()
        reads.append({writer[op.register] for op in operands if isinstance(op, RegOperand)})
        writer[step.dest] = len(reads) - 1
    out, n = writer[program.output_register], len(reads)

    def held(j: int, t: int) -> bool:
        return j == t or j == out or any(j in reads[s] for s in range(t + 1, n))

    return max(sum(held(j, t) for j in range(t + 1)) for t in range(n))


def is_alternating(formula: Formula) -> bool:
    """Do add and mul strictly alternate down every path of the formula?"""

    def walk(node: FormulaNode, parent_op: str | None) -> bool:
        if not isinstance(node, FOp):
            return True
        if node.op == parent_op:
            return False
        return all(walk(child, node.op) for child in node.children)

    return walk(formula.root, None)


def index_bound(problem: RootProblem) -> int:
    """(m + r)^r, a power bound on the size of problem.index_set()."""
    return (problem.m + problem.r) ** problem.r


class DuplicatePoint(SlpforgeError):
    """Interpolation received the same sample point twice."""


def reference_lagrange_matrix(
    ring: Ring, points: Sequence[ScalarLike]
) -> list[list[Scalar]]:
    """Matrix A with A[i][j] = coefficient of z**i in the j-th Lagrange basis
    polynomial over arbitrary distinct sample points, in Scalar arithmetic:
    the oracle for rings.lagrange_grid."""
    pts = [ring.scalar(x) for x in points]
    if not pts:
        raise ParamError("need at least one interpolation point")
    seen = set()
    for x in pts:
        if x in seen:
            raise DuplicatePoint(f"repeated interpolation point {x.text()}")
        seen.add(x)
    n = len(pts)
    # Master polynomial prod_k (z - x_k), low-order-first, monic of degree n.
    master = [ring.one()]
    for x in pts:
        nxt = [ring.zero()] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i] = nxt[i] - c * x
            nxt[i + 1] = nxt[i + 1] + c
        master = nxt
    columns = []
    for xj in pts:
        # Synthetic division by (z - xj); the quotient is the unnormalized basis.
        quotient = [ring.zero()] * n
        carry = master[n]
        for i in range(n - 1, -1, -1):
            quotient[i] = carry
            carry = master[i] + carry * xj
        denom = poly_eval(quotient, xj)
        inv = denom.inverse()
        columns.append([c * inv for c in quotient])
    return [[columns[j][i] for j in range(n)] for i in range(n)]


def vandermonde_solve(
    ring: Ring, points: Sequence[ScalarLike], values: Sequence[ScalarLike]
) -> list[Scalar]:
    """Coefficients (low-order-first) of the unique polynomial of degree
    < len(points) taking the given values at the given points."""
    if len(points) != len(values):
        raise ParamError(
            f"{len(points)} points but {len(values)} values"
        )
    vals = [ring.scalar(v) for v in values]
    matrix = reference_lagrange_matrix(ring, points)
    out = []
    for row in matrix:
        acc = ring.zero()
        for a, v in zip(row, vals):
            acc = acc + a * v
        out.append(acc)
    return out


def homogeneous_part(poly: SparsePolynomial, d: int) -> SparsePolynomial:
    """The terms of poly of degree exactly d."""
    return SparsePolynomial(
        poly.ring,
        poly.mode,
        poly.num_variables,
        {m: c for m, c in poly.terms.items() if m.degree == d},
    )


def is_homogeneous(poly: SparsePolynomial) -> bool:
    degrees = {m.degree for m in poly.terms}
    return len(degrees) <= 1


def evaluate_sparse(poly: SparsePolynomial, assignment: Sequence[ScalarLike]) -> Scalar:
    """poly at assignment[i-1] for variable xi, term by term in ring scalars.

    The oracle for circuits.evaluate on the expansion of an object.
    """
    if len(assignment) != poly.num_variables:
        raise ArityMismatch(f"expected {poly.num_variables} scalars, got {len(assignment)}")
    ring = poly.ring
    point = [ring.scalar(v) for v in assignment]
    acc = ring.zero()
    for mono, coeff in poly.terms.items():
        value = ring.one()
        if poly.mode == COMMUTATIVE:
            for var, exp in mono.key:
                value = value * point[var - 1] ** exp
        else:
            for var in mono.key:
                value = value * point[var - 1]
        acc = acc + coeff * value
    return acc


def formal_derivative(poly: SparsePolynomial, var: int, order: int = 1) -> SparsePolynomial:
    """Iterated formal partial derivative with respect to one variable."""
    if poly.mode != COMMUTATIVE:
        raise ModeMismatch("formal derivative needs a commutative polynomial")
    if order < 0:
        raise ParamError(f"derivative order must be >= 0, got {order}")
    for _ in range(order):
        acc: dict[Monomial, Scalar] = {}
        for mono, coeff in poly.terms.items():
            exps = dict(mono.key)
            e = exps.get(var, 0)
            if e == 0:
                continue
            if e == 1:
                exps.pop(var)
            else:
                exps[var] = e - 1
            new_mono = Monomial.from_exponents(exps)
            new_coeff = coeff * e
            if new_coeff.is_zero:
                continue
            prev = acc.get(new_mono)
            total = new_coeff if prev is None else prev + new_coeff
            if total.is_zero:
                acc.pop(new_mono, None)
            else:
                acc[new_mono] = total
        poly = SparsePolynomial(poly.ring, poly.mode, poly.num_variables, acc)
    return poly


def substitute_scalar(poly: SparsePolynomial, var: int, value) -> SparsePolynomial:
    """Replace one variable by a ring constant."""
    val = poly.ring.scalar(value)
    acc: dict[Monomial, Scalar] = {}
    for mono, coeff in poly.terms.items():
        if poly.mode == COMMUTATIVE:
            exps = dict(mono.key)
            e = exps.pop(var, 0)
            new_mono = Monomial.from_exponents(exps)
            new_coeff = coeff * val**e
        else:
            kept = []
            new_coeff = coeff
            for idx in mono.key:
                if idx == var:
                    new_coeff = new_coeff * val
                else:
                    kept.append(idx)
            new_mono = Monomial.word(kept)
        if new_coeff.is_zero:
            continue
        prev = acc.get(new_mono)
        total = new_coeff if prev is None else prev + new_coeff
        if total.is_zero:
            acc.pop(new_mono, None)
        else:
            acc[new_mono] = total
    return SparsePolynomial(poly.ring, poly.mode, poly.num_variables, acc)


def replace_leaves(
    circuit: LayeredCircuit, leaves: dict[int, VarLeaf | ConstLeaf], name: str | None = None
) -> LayeredCircuit:
    """The circuit with each variable leaf x_i in leaves read as leaves[i] instead.

    Implicit copies stay implicit.
    """
    table = circuit.gates
    gates = {
        gid: leaves.get(g.index, g) if isinstance(g, VarLeaf) else g
        for gid, g in table.explicit.items()
    }
    return LayeredCircuit(
        name or circuit.name,
        circuit.ring,
        circuit.mode,
        circuit.num_variables,
        circuit.layers,
        _GateTable(gates, table.copies, table.one),
        circuit.output_id,
    )


def _emit_verbatim(sb: SlpBuilder, program: StraightLineProgram, dirty: bool) -> int:
    """Append program's steps to sb, first clearing its stale reads when dirty."""
    if dirty:
        zero = ConstLeaf(program.ring.zero())
        for r in _stale_read_registers(program.steps):
            sb.load(r, zero)
    for step in program.steps:
        if isinstance(step, LoadStep):
            sb.load(step.dest, step.source)
        else:
            sb.apply(step.dest, step.op, step.left, step.right)
    return program.output_register


def _restriction_constants(n: int, k: int) -> dict[int, int]:
    """x_ij <- 1 if i = j else 0, for every entry outside the k x k corner."""
    fixed = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > k or j > k:
                fixed[permanent_var_index(n, i, j)] = 1 if i == j else 0
    return fixed


def _minor_variable_map(n: int, k: int, i: int) -> dict[int, int]:
    """Feed the (k-1)-corner circuit the minor lacking row 1 and column i."""
    renames = {}
    for a in range(1, k):
        for b in range(1, k):
            col = b if b < i else b + 1
            renames[permanent_var_index(n, a, b)] = permanent_var_index(n, a + 1, col)
    return renames


def reference_perm_check_instance(c: LayeredCircuit) -> PermCheckInstance:
    """The permanent construction as first written: one staggering per part.

    Every restriction C_k and every minor (a renaming of C_{k-1}) is
    rewritten as a circuit and staggered on its own.  Kept as the oracle
    for pit.perm_check_instance, whose identities must serialize equal.
    """
    n = math.isqrt(c.num_variables)
    restricted = [
        replace_leaves(
            c,
            {i: ConstLeaf(c.ring.scalar(v)) for i, v in _restriction_constants(n, k).items()},
            name=f"C_{k}",
        )
        for k in range(1, n + 1)
    ]
    programs = [staggerize(rc) for rc in restricted]

    identity_programs = []
    for k in range(1, n + 1):
        parts = [programs[k - 1]]
        for i in range(1, k + 1):
            if k == 1:
                sb0 = SlpBuilder(c.ring, c.mode, c.num_variables, name="one")
                sb0.load(0, sb0.const(1))
                parts.append(sb0.finish(0))
            else:
                renames = _minor_variable_map(n, k, i)
                minor = replace_leaves(
                    restricted[k - 2],
                    {a: VarLeaf(b) for a, b in renames.items()},
                    name=f"C_{k - 1}_minor_{i}",
                )
                parts.append(staggerize(minor))
        pool = max(p.register_count for p in parts)
        acc = pool
        sb = SlpBuilder(
            c.ring, c.mode, c.num_variables, register_count=pool + 1, name=f"B_{k}"
        )
        for i, part in enumerate(parts):
            # Earlier parts may have dirtied registers this one reads blind.
            out = _emit_verbatim(sb, part, dirty=i > 0)
            if i > 0:
                sb.apply(out, "mul", sb.var(permanent_var_index(n, 1, i)), sb.reg(out))
                sb.apply(out, "mul", sb.const(-1), sb.reg(out))
            sb.apply(acc, "add", sb.reg(acc), sb.reg(out))
        identity_programs.append(sb.finish(acc))
    return PermCheckInstance(candidate=c, n=n, programs=tuple(identity_programs))


def reference_truncated_power_product(
    factors,
    alpha: tuple[int, ...],
    m: int,
    one: SparsePolynomial,
    caps: ExpansionCaps,
) -> SparsePolynomial:
    """prod_i factors[i]^alpha_i truncated to degree m, built from one.

    The root assembly's power product as first written, kept as the
    oracle for rootfind._power_products.
    """
    acc = one
    for poly, e in zip(factors, alpha):
        for _ in range(e):
            acc = acc.mul(poly, caps).truncate(m)
            if acc.is_zero:
                return acc
    return acc


def reference_poly_at_series(
    coeffs, g: SparsePolynomial, m: int, caps: ExpansionCaps
) -> SparsePolynomial:
    """sum_i coeffs[i] * g^i truncated to degree m, by Horner."""
    acc = SparsePolynomial.zero(g.ring, g.mode, g.num_variables)
    for c in reversed(coeffs):
        acc = acc.mul(g, caps).truncate(m).add(c)
    # The added coefficients are not truncated, so clip once at the end.
    return acc.truncate(m)


def reference_series_inverse(
    u: SparsePolynomial, m: int, caps: ExpansionCaps
) -> SparsePolynomial:
    """Multiplicative inverse of u modulo degree m+1; u(0) must be a unit."""
    unit = Monomial.unit(u.mode)
    u0 = u.coefficient(unit)
    if u0.is_zero:
        raise InvariantViolation("series inverse at a non-unit")
    u0_inv = u0.inverse()
    one = SparsePolynomial.constant(u.ring, u.mode, u.num_variables, 1)
    tail = one.sub(u.scale(u0_inv)).truncate(m)
    acc = one
    term = one
    for _ in range(m):
        term = term.mul(tail, caps).truncate(m)
        if term.is_zero:
            break
        acc = acc.add(term)
    return acc.scale(u0_inv)


def reference_newton_series_root(rp: RootProblem) -> SparsePolynomial:
    """rootfind.newton_series_root as first written, on SparsePolynomial.

    Only products are capped (sums are not), so it raises no more often
    than the raw-term Newton; kept as its oracle.
    """
    ring = rp.program.ring
    char = ring.characteristic
    if 0 < char <= rp.m:
        raise CharacteristicTooSmall(
            f"characteristic {char} must be 0 or exceed the target degree {rp.m}"
        )
    m, caps = rp.m, rp.series_caps
    n = rp.num_x_variables
    coeffs = list(rp.coefficients)
    deriv_coeffs = [c.scale(i) for i, c in enumerate(coeffs)][1:]

    g = SparsePolynomial.constant(ring, COMMUTATIVE, n, rp.y0)
    for _ in range(m.bit_length()):
        value = reference_poly_at_series(coeffs, g, m, caps)
        slope = reference_poly_at_series(deriv_coeffs, g, m, caps)
        step = value.mul(reference_series_inverse(slope, m, caps), caps)
        g = g.sub(step.truncate(m)).truncate(m)
    if not reference_poly_at_series(coeffs, g, m, caps).is_zero:
        raise InvariantViolation("Newton iteration did not converge")
    return g


def reference_solve_exact(ring, matrix, rhs) -> list[Scalar]:
    """rootfind._solve_exact as first written, on Scalar entries.

    Exact Gauss-Jordan solve; free variables are set to zero.  Raises
    UnsolvableSystem when the equations are inconsistent.
    """
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for rr in range(rank, len(rows)):
            if not rows[rr][col].is_zero:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for rr in range(len(rows)):
            if rr != rank and not rows[rr][col].is_zero:
                factor = rows[rr][col]
                rows[rr] = [a - factor * b for a, b in zip(rows[rr], rows[rank])]
        pivots.append((rank, col))
        rank += 1
    for rr in range(rank, len(rows)):
        if not rows[rr][ncols].is_zero:
            raise UnsolvableSystem("mixing system is inconsistent")
    solution = [ring.zero()] * ncols
    for row_index, col in pivots:
        solution[col] = rows[row_index][ncols]
    return solution


# ---------------------------------------------------------------------------
# sympy as an independent oracle (callers importorskip sympy)


def sympy_rational(sympy, value):
    value = Fraction(value)
    return sympy.Rational(value.numerator, value.denominator)


def sympy_program(sympy, obj, gens, domain="QQ"):
    """The commutative polynomial obj computes, as a sympy Poly over domain.

    obj is a straight-line program, a layered circuit or an ABP.  The walk
    runs the program's steps, the circuit's gates in layer order, or the
    ABP's edges in layer order on sympy Polys, so it shares no code with
    circuits.fold.
    """

    def poly(expr):
        return sympy.Poly(expr, *gens, domain=domain)

    def constant(scalar):
        return poly(sympy_rational(sympy, scalar.value))

    def apply(op, left, right):
        return left + right if op == "add" else left * right

    if isinstance(obj, LayeredCircuit):
        values = {}
        for layer in obj.layers:
            for gid in layer:
                g = obj.gates[gid]
                if isinstance(g, VarLeaf):
                    values[gid] = poly(gens[g.index - 1])
                elif isinstance(g, ConstLeaf):
                    values[gid] = constant(g.value)
                else:
                    values[gid] = apply(g.op, values[g.left], values[g.right])
        return values[obj.output_id]

    if isinstance(obj, AlgebraicBranchingProgram):
        # The sum over source-to-sink paths of the product of edge labels.
        layer_of = {vid: i for i, layer in enumerate(obj.layers) for vid in layer}
        reach = {obj.source: poly(1)}
        for u, v, label in sorted(obj.edges, key=lambda edge: layer_of[edge[0]]):
            if u in reach:
                form = constant(label.constant)
                for var, coeff in label.coefficients.items():
                    form += constant(coeff) * poly(gens[var - 1])
                reach[v] = reach.get(v, poly(0)) + reach[u] * form
        return reach.get(obj.sink, poly(0))

    regs = [poly(0)] * obj.register_count

    def read(op):
        if isinstance(op, RegOperand):
            return regs[op.register]
        if isinstance(op, VarLeaf):
            return poly(gens[op.index - 1])
        assert isinstance(op, ConstLeaf)
        return constant(op.value)

    for step in obj.steps:
        if isinstance(step, LoadStep):
            regs[step.dest] = read(step.source)
        else:
            regs[step.dest] = apply(step.op, read(step.left), read(step.right))
    return regs[obj.output_register]


def sympy_of(sympy, poly: SparsePolynomial, gens):
    """A commutative SparsePolynomial as a sympy expression in gens."""
    expr = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy_rational(sympy, coeff.value)
        for var, exp in mono.key:
            term *= gens[var - 1] ** exp
        expr += term
    return expr
