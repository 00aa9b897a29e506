"""Width-preserving program transformations.

Every operation here rebuilds its input as a straight-line program (or
layered circuit) whose register count exceeds the input width by a
small fixed overhead, documented per function:

  depth_to_width          width <= formula depth
  homogeneous_components  +2 registers (stage + accumulator), budget W_H = 3
  homogeneous_prefix      +2 registers, same budget
  partial_derivative_y    +2 registers (Horner + accumulator), budget W_D = 4
  sparse_to_width2        exactly 2 registers

The interpolation-based transforms share one emission pattern: re-run
the input program's live steps (circuits.live_steps, the steps its
output reads) once per evaluation point with its variable reads
rewritten (scaled by a constant, or substituted), then combine the
per-point outputs with interpolation weights in an accumulator.
Registers those steps read before writing are cleared between runs,
since the re-emitted copies share one register file.  A run appends
the input's own step objects wherever it leaves the variable reads
alone, and stages a scaled variable in one step, r = x_i * z, so a
body step costs a run at most three steps.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .circuits import (
    ApplyStep,
    ConstLeaf,
    LayeredCircuit,
    Leaf,
    LoadStep,
    RegOperand,
    SlpBuilder,
    StraightLineProgram,
    Step,
    VarLeaf,
    expand,
    live_steps,
    slp_to_circuit,
)
from .errors import (
    CapExceeded,
    CharacteristicTooSmall,
    DegreeBoundViolated,
    ModeMismatch,
    ParamError,
)
from .formulas import FOp, Formula
from .polynomials import (
    COMMUTATIVE,
    DEFAULT_CAPS,
    ExpansionCaps,
    Monomial,
    SparsePolynomial,
)
from .rings import Ring, Scalar, lagrange_grid


# ---------------------------------------------------------------------------
# Formula depth to circuit width


def depth_to_width(f: Formula, name: str | None = None) -> LayeredCircuit:
    """Turn a fanin-unbounded formula of depth d into a circuit of width <= d.

    A gate at nesting level L accumulates its children left to right in
    register L-1; a child that is itself a gate is built one register
    deeper, so the register high-water mark is the formula depth.  Leaf
    children are the apply steps' immediate operands as they are.  Size of
    the result is at most (d+1) times the formula size plus two.  No
    constants are introduced beyond the multiplicative identities that
    layering inserts for pass-through copies, so monotone formulas give
    monotone circuits.
    """
    sb = SlpBuilder(f.ring, f.mode, f.num_variables, name=name or "depth_to_width")

    def emit(node: FOp, level: int) -> None:
        dest = level - 1
        first = node.children[0]
        if isinstance(first, FOp):
            emit(first, level)
        else:
            sb.load(dest, first)
        for child in node.children[1:]:
            if isinstance(child, FOp):
                emit(child, level + 1)
                sb.apply(dest, node.op, sb.reg(dest), sb.reg(level))
            else:
                sb.apply(dest, node.op, sb.reg(dest), child)

    if isinstance(f.root, FOp):
        emit(f.root, 1)
    else:
        sb.load(0, f.root)
    return slp_to_circuit(sb.finish(0), name=name or "depth_to_width")


# ---------------------------------------------------------------------------
# Shared emission machinery for the interpolation transforms


def _stale_read_registers(steps: Sequence[Step]) -> tuple[int, ...]:
    """Registers the steps read before writing (they rely on the zero init)."""
    written: set[int] = set()
    stale: set[int] = set()
    for step in steps:
        if isinstance(step, ApplyStep):
            for op in (step.left, step.right):
                if isinstance(op, RegOperand) and op.register not in written:
                    stale.add(op.register)
        written.add(step.dest)
    return tuple(sorted(stale))


def _reads_variable(step: Step) -> bool:
    if isinstance(step, LoadStep):
        return isinstance(step.source, VarLeaf)
    return isinstance(step.left, VarLeaf) or isinstance(step.right, VarLeaf)


class _BodyEmitter:
    """Re-emits one program's live steps into a wider builder, once per point.

    Only the steps the program's output reads (circuits.live_steps) are
    re-emitted, so a dead step costs no run anything.  Registers those
    steps read before writing are cleared before every run but the first.

    Each run may rewrite variable reads through ``leaves``, a map from
    variable index to the operand read in its place: a constant (for
    derivative and root assembly, and the permanent's restrictions) or
    another variable (the permanent's minors).  Variable reads that stay
    variables can also be scaled by a constant (for the homogeneous
    transforms and root assembly).  A scaled load is one step,
    dest = x_i * z; a scaled operand of an apply step is staged in one
    step, r = x_i * z, in ``stage_register``.

    Steps are immutable, so a run appends the body's own step object for
    every step whose variable reads it leaves as they are (every step
    that reads no variable), and the clears of the stale registers are
    built once; only a step with a rewritten read is built anew.
    """

    def __init__(
        self,
        sb: SlpBuilder,
        program: StraightLineProgram,
        stage_register: int | None,
    ):
        self.sb = sb
        self.program = program
        steps = live_steps(program)
        self.body = tuple((step, _reads_variable(step)) for step in steps)
        self.stage = stage_register  # only runs that scale use it
        zero = ConstLeaf(program.ring.zero())
        self.clears = tuple(LoadStep(r, zero) for r in _stale_read_registers(steps))
        self.one = program.ring.one()
        self.ran_before = False

    def run(
        self,
        scale: Scalar | None = None,
        leaves: Mapping[int, Leaf] | None = None,
    ) -> int:
        """Emit one run; returns the register holding the program's output."""
        sb = self.sb
        if self.ran_before:
            sb.extend(self.clears)
        self.ran_before = True

        leaves = leaves or {}
        factor = None
        if scale is not None and scale != self.one:
            factor = ConstLeaf(scale)

        def read(op):
            # The operand read in op's place.
            if isinstance(op, VarLeaf):
                return leaves.get(op.index, op)
            return op

        def staged(register: int, var_op: VarLeaf) -> RegOperand:
            emitted.append(ApplyStep(register, "mul", var_op, factor))
            return sb.reg(register)

        emitted: list[Step] = []
        for step, reads_variable in self.body:
            if not reads_variable:
                emitted.append(step)
            elif isinstance(step, LoadStep):
                source = read(step.source)
                if factor is not None and isinstance(source, VarLeaf):
                    emitted.append(ApplyStep(step.dest, "mul", source, factor))
                elif source is step.source:
                    emitted.append(step)
                else:
                    emitted.append(LoadStep(step.dest, source))
            else:
                left, right = read(step.left), read(step.right)
                if factor is not None:
                    # A scaled operand is staged in the stage register, or
                    # in dest when the left one took it: a step whose
                    # operands are both variables does not read dest's
                    # old value.
                    scale_left = isinstance(left, VarLeaf)
                    if scale_left:
                        left = staged(self.stage, left)
                    if isinstance(right, VarLeaf):
                        right = staged(step.dest if scale_left else self.stage, right)
                if left is step.left and right is step.right:
                    emitted.append(step)
                else:
                    emitted.append(ApplyStep(step.dest, step.op, left, right))
        sb.extend(emitted)
        return self.program.output_register


def _scaled_combination(
    c: StraightLineProgram,
    points: list[Scalar],
    weights: list[Scalar],
    name: str,
) -> StraightLineProgram:
    """Program computing sum_j weights[j] * c(points[j] * x_bar).

    Uses c's registers plus a stage register and an accumulator, so the
    register count is c.register_count + 2.
    """
    w = c.register_count
    stage, acc = w, w + 1
    sb = SlpBuilder(c.ring, c.mode, c.num_variables, register_count=w + 2, name=name)
    emitter = _BodyEmitter(sb, c, stage)
    zero = c.ring.zero()
    for z, weight in zip(points, weights):
        if weight == zero:
            continue
        out = emitter.run(scale=z)
        sb.apply(out, "mul", sb.reg(out), ConstLeaf(weight))
        sb.apply(acc, "add", sb.reg(acc), sb.reg(out))
    return sb.finish(acc)


def _homogeneity_weights(c: StraightLineProgram, m: int):
    if m < 0:
        raise ParamError(f"degree bound must be nonnegative, got {m}")
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("homogeneous components need a commutative program")
    return lagrange_grid(c.ring, m + 1)


def _prefix_weights(ring: Ring, matrix: list[list[Scalar]], k: int) -> list[Scalar]:
    """Per grid point, the weight of H_0 + ... + H_k: column sums of rows 0..k."""
    return [sum(column[: k + 1], ring.zero()) for column in zip(*matrix)]


def homogeneous_components(c: StraightLineProgram, m: int) -> list[StraightLineProgram]:
    """Degree-i slices H_0..H_m of the polynomial c computes.

    Requires deg(expand(c)) <= m.  Each H_i evaluates c at x_bar scaled
    by m+1 sample points and recombines the runs with interpolation
    weights, so it uses c.register_count + 2 registers.
    """
    points, matrix = _homogeneity_weights(c, m)
    return [
        _scaled_combination(c, points, matrix[i], f"{c.name}_H{i}")
        for i in range(m + 1)
    ]


def homogeneous_prefix(
    c: StraightLineProgram, m: int, k: int | None = None
) -> StraightLineProgram:
    """Single program computing H_0 + ... + H_k (default k = m)."""
    if k is None:
        k = m
    if not 0 <= k <= m:
        raise ParamError(f"prefix degree {k} outside 0..{m}")
    points, matrix = _homogeneity_weights(c, m)
    weights = _prefix_weights(c.ring, matrix, k)
    return _scaled_combination(c, points, weights, f"{c.name}_Hle{k}")


# ---------------------------------------------------------------------------
# Partial derivatives in the last variable


def falling_factorial(ring, i: int, j: int) -> Scalar:
    """i * (i-1) * ... * (i-j+1) as a ring scalar (1 when j = 0)."""
    value = 1
    for t in range(j):
        value *= i - t
    return ring.scalar(value)


def partial_derivative_y(
    c: StraightLineProgram,
    j: int,
    r: int,
    caps: ExpansionCaps = DEFAULT_CAPS,
) -> StraightLineProgram:
    """Program for the j-th derivative of c in its last variable.

    Treats the last variable as y and c as sum_i C_i(x_bar) y^i with
    i <= r.  The result computes sum_{i=j}^r i(i-1)..(i-j+1) C_i y^{i-j},
    recovering each C_i by running c at r+1 constant y-values and
    interpolating.  Per y-point the interpolation weight times the
    derivative's y-monomials folds into one univariate polynomial in y,
    evaluated by Horner in a scratch register, so the output uses
    c.register_count + 2 registers.

    The y-degree precondition is checked by expanding c under ``caps``;
    the expansion folds c's live steps alone, so only a step the output
    reads can overflow the caps.  When it overflows, the check is
    skipped and the caller's r is trusted.
    """
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("partial derivatives need a commutative program")
    if c.num_variables < 1:
        raise ParamError("program has no variables, so no y to differentiate")
    if not 0 <= j <= r:
        raise ParamError(f"derivative order {j} outside 0..{r}")
    char = c.ring.characteristic
    if 0 < char <= r:
        raise CharacteristicTooSmall(
            f"characteristic {char} must exceed the y-degree bound {r}"
        )

    y = c.num_variables
    try:
        revealed = max(expand(c, caps).coefficients_in(y), default=0)
    except CapExceeded:
        revealed = None
    if revealed is not None and revealed > r:
        raise DegreeBoundViolated(f"y-degree {revealed} exceeds the stated bound {r}")

    points, matrix = lagrange_grid(c.ring, r + 1)
    zero = c.ring.zero()

    w = c.register_count
    horner, acc = w, w + 1
    sb = SlpBuilder(c.ring, c.mode, c.num_variables, register_count=w + 2, name=f"{c.name}_d{j}")
    emitter = _BodyEmitter(sb, c, horner)
    for t in range(r + 1):
        # Coefficient of y^d in this point's contribution, d = i - j.
        coeffs = [
            falling_factorial(c.ring, i, j) * matrix[i][t] for i in range(j, r + 1)
        ]
        if all(value == zero for value in coeffs):
            continue
        out = emitter.run(leaves={y: ConstLeaf(points[t])})
        sb.load(horner, ConstLeaf(coeffs[-1]))
        for value in reversed(coeffs[:-1]):
            sb.apply(horner, "mul", sb.reg(horner), sb.var(y))
            if value != zero:
                sb.apply(horner, "add", sb.reg(horner), ConstLeaf(value))
        sb.apply(horner, "mul", sb.reg(horner), sb.reg(out))
        sb.apply(acc, "add", sb.reg(acc), sb.reg(horner))
    return sb.finish(acc)


# ---------------------------------------------------------------------------
# Sparse polynomial to two registers


def _monomial_factors(mono: Monomial):
    if mono.mode == COMMUTATIVE:
        for var, exp in mono.key:
            for _ in range(exp):
                yield var
    else:
        yield from mono.key


def sparse_to_width2(
    p: SparsePolynomial, name: str | None = None
) -> StraightLineProgram:
    """Compile a sparse polynomial to a program with exactly two registers.

    Register 0 assembles one term at a time, coefficient first and then
    each variable factor in order (which preserves word order for
    noncommutative input); register 1 accumulates.  Nonnegative
    coefficients therefore give a monotone program.  Step count is at
    most (degree + 2) per term; the zero polynomial compiles to an
    empty program whose output register holds the initial zero.
    """
    build, acc = 0, 1
    sb = SlpBuilder(p.ring, p.mode, p.num_variables, register_count=2, name=name or "sparse")
    for mono in p.monomials():
        sb.load(build, ConstLeaf(p.terms[mono]))
        for var in _monomial_factors(mono):
            sb.apply(build, "mul", sb.reg(build), sb.var(var))
        sb.apply(acc, "add", sb.reg(acc), sb.reg(build))
    return sb.finish(acc)
