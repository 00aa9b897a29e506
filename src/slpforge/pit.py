"""Polynomial identity testing and the permanent-candidate verifier.

Three testers with different trust models:

  schwartz_zippel   randomized point sampling; nonzero verdicts carry a
                    witness and are unconditionally sound, zero verdicts
                    fail with probability <= degreeBound/|sample set|
                    per trial
  nw_pit            deterministic grid tester: composes the circuit with
                    a hard multilinear family along a combinatorial
                    design and evaluates over a full grid; completeness
                    is unconditional, soundness rests on the family's
                    hardness (a configuration choice, never verified
                    here); a zero verdict shows only that the
                    composition vanishes on the grid
  verify_permanent_circuit
                    reduces "does C compute the permanent" to n circuit
                    identities via Laplace expansion along the first
                    row, then tests each identity with a backend's loop,
                    evaluating the candidate itself at transformed points

Every test runs one loop for every ring.  A point is a column of
indices into a value table (the sample points, or the S^m values of the
hard family), and _first_nonzero hands a batch of columns at once to an
evaluator of raw columns: circuits.evaluate_batch of the input for
schwartz_zippel and nw_pit, in int64 over F_p with p < 2^31 and in
exact object columns over every other ring.  An int64 batch is full
from the first point, since numpy's cost per gate, not per point,
dominates a small batch; an object batch starts at one point, so an
early hit stays cheap, and grows from there (see _batches).  The hard
family's table is itself one batched pass of raw arithmetic:
HardFamily.evaluate_raw over one column per key coordinate, in the same
dtype.

The permanent check builds no identity program.  Identity B_k at a
batch of points X is C(R_k X) - sum_{i<=k} x_1i * C(M_{k,i} X), where
R_k fixes every entry outside the k x k corner to the identity matrix's
and M_{k,i} feeds that corner's minor lacking row 1 and column i (the
constant 1 for k = 1).  So each batch is one evaluate_batch of the
candidate over k+1 blocks of transformed columns, combined with the
ring's raw add, mul and neg, and B_k's syntactic degree comes from folds
of the candidate.  perm_check_instance still builds the identities as
programs: the public width <= w+2 construction, against which the
tests check this path.

The hard families shipped here are explicit multilinear polynomials
whose coefficients come from a cheap deterministic rule.  They make the
mechanism testable at desk scale; nothing about them is known to be
hard.  nw_design repeats sets when m < degree_bound: nw_design(3, 1)
has sets 0 and 2 equal, so nw_pit(c, hf, 1) says "zero" on x1 - x3
over F_101 for both families, and schwartz_zippel(c, 20) "nonzero".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .circuits import (
    AlgebraicBranchingProgram,
    ConstLeaf,
    LayeredCircuit,
    Leaf,
    SlpBuilder,
    StraightLineProgram,
    VarLeaf,
    _renamed,
    batch_dtype,
    evaluate_batch,
    fold,
    slp_to_circuit,
    syntactic_degree,
    validate,
)
from .errors import GridTooLarge, ModeMismatch, ParamError
from .families import permanent_var_index
from .polynomials import COMMUTATIVE, Monomial, SparsePolynomial
from .rings import Ring, Scalar, is_probable_prime
from .stagger import staggerize
from .transforms import _BodyEmitter

__all__ = [
    "Verdict",
    "PermVerdict",
    "NWDesign",
    "HardFamily",
    "HARD_FAMILIES",
    "PermCheckInstance",
    "schwartz_zippel",
    "nw_design",
    "nw_pit",
    "perm_check_instance",
    "verify_permanent_circuit",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of an identity test; witness is set exactly when nonzero."""

    status: str  # "zero" or "nonzero"
    witness: tuple[Scalar, ...] | None = None

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# A batch of int64 points holds at most this many values: fold keeps a
# value for every explicit gate of a circuit, and a copy shares
# its source's, so a circuit with 278 explicit gates gets 3771 points.
# The permanent check evaluates its candidate on one block of columns
# per part of identity k, k+1 of them (one for k = 1), so it counts the
# candidate's explicit gates times the blocks.
# An object batch holds 16 times fewer: a pointer and a Python number each.
_BATCH_CELLS = 1 << 20
_BATCH_POINTS = 4096


def _cells(c) -> int:
    """The values a fold of c stores per point: registers, vertices and edges, or gates."""
    if isinstance(c, StraightLineProgram):
        return c.register_count
    if isinstance(c, AlgebraicBranchingProgram):
        return c.size + len(c.edges)
    return len(c.gates.explicit)


def _batch_points(cells: int, cells_cap: int = _BATCH_CELLS) -> int:
    """Points per batch, so a batch of cells values per point stays within cells_cap."""
    return max(1, min(_BATCH_POINTS, cells_cap // max(1, cells)))


def _batches(ring: Ring, cells: int, total: int):
    """(start, stop) point ranges: full int64 batches, growing object ones.

    int64 batches hold _batch_points(cells) points from the first one on.
    Their cost is numpy's call per gate far more than the points: on a
    depth_to_width circuit of 62 explicit gates, one evaluate_batch took
    146 us at 1 point, 212 us at 256 and 728 us at 2401 (best of 7 x 50,
    a 2-core Xeon, Python 3.11), so a lone first point would save an
    early hit little and cost every later one a whole extra fold.
    Object batches, whose every point costs exact arithmetic, start at
    one point and grow 4 times up to their cap: a hit at point t costs
    < 4t + 1 points.
    """
    grows = batch_dtype(ring) == object
    cap = _batch_points(cells, _BATCH_CELLS // 16 if grows else _BATCH_CELLS)
    start, size = 0, 1 if grows else cap
    while start < total:
        yield start, min(start + size, total)
        start += size
        size = min(cap, 4 * size)


def _value_table(ring: Ring, values: Sequence[Scalar]) -> np.ndarray:
    """The raw values, as evaluate_batch reads them over ring."""
    return np.array([v.value for v in values], dtype=batch_dtype(ring))


# Raw columns, one row per variable, to the raw value at every column.
Evaluator = Callable[[np.ndarray], np.ndarray]


def _first_nonzero(evaluator: Evaluator, table: np.ndarray, columns: np.ndarray) -> int | None:
    """Index of the first point (column) where evaluator's value is nonzero.

    Row i-1 of columns holds, for every point, x_i's index into table.
    """
    hits = np.flatnonzero(evaluator(table[columns]))
    return int(hits[0]) if hits.size else None


def schwartz_zippel(
    c,
    trials: int,
    degree_bound: int | None = None,
    seed: int = 0,
    sample_size: int | None = None,
) -> Verdict:
    """Random evaluation test over a fixed sample grid.

    A nonzero verdict is always correct and returns the witness: the
    first nonzero trial, in trial order.  A zero verdict is wrong with
    probability at most (degree_bound / sample_size) per trial, by the
    degree bound on the number of roots along each coordinate.  Trial t
    reads the t-th size-n draw of the seeded Philox stream; each batch
    takes its trials in one (trials, n) draw, which is the same stream.
    """
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("point sampling tests commutative circuits only")
    if degree_bound is None:
        degree_bound = syntactic_degree(c)
    return _sample_test(
        partial(evaluate_batch, c), _cells(c), c.ring, c.num_variables,
        trials, degree_bound, sample_size, seed,
    )


def _sample_test(
    evaluator: Evaluator,
    cells: int,
    ring: Ring,
    n: int,
    trials: int,
    degree_bound: int,
    sample_size: int | None,
    seed: int,
) -> Verdict:
    """schwartz_zippel's loop over trials points of n coordinates.

    sample_size defaults to max(1, 2 * degree_bound); cells is what one
    point of evaluator stores (see _batches).
    """
    if trials < 1:
        raise ParamError(f"trials must be >= 1, got {trials}")
    if sample_size is None:
        sample_size = max(1, 2 * degree_bound)
    elif sample_size < 1:
        raise ParamError(f"sample_size must be >= 1, got {sample_size}")
    points = ring.sample_points(sample_size)
    table = _value_table(ring, points)
    rng = _rng(seed)
    for start, stop in _batches(ring, cells, trials):
        indices = rng.integers(0, sample_size, size=(stop - start, n)).T
        hit = _first_nonzero(evaluator, table, indices)
        if hit is not None:
            return Verdict("nonzero", tuple(points[i] for i in indices[:, hit]))
    return Verdict("zero")


# ---------------------------------------------------------------------------
# Combinatorial designs

@dataclass(frozen=True)
class NWDesign:
    """Family of m-subsets of a q^2 universe with small pairwise overlap.

    Set i is the graph {a*q + f_i(a)} of the i-th polynomial of degree
    below degree_bound over F_q, restricted to the first m field
    elements, so two sets meet in fewer than degree_bound points.
    """

    n: int
    m: int
    q: int
    degree_bound: int
    sets: tuple[frozenset[int], ...]

    @property
    def universe_size(self) -> int:
        return self.q * self.q


def nw_design(n: int, m: int) -> NWDesign:
    """n sets of size m with intersections below ceil(log2 n); repeats when m < degree_bound."""
    if n < 1 or m < 1:
        raise ParamError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    q = next(p for p in range(max(m, 2), 2 * m + 1) if is_probable_prime(p))
    d = 1
    while q**d < n:
        d += 1
    sets = []
    for index in range(n):
        coeffs = []
        rest = index
        for _ in range(d):
            coeffs.append(rest % q)
            rest //= q
        members = set()
        for a in range(m):
            value = 0
            for coeff in reversed(coeffs):
                value = (value * a + coeff) % q
            members.add(a * q + value)
        sets.append(frozenset(members))
    return NWDesign(n=n, m=m, q=q, degree_bound=d, sets=tuple(sets))


# ---------------------------------------------------------------------------
# Hard families and the grid tester

def _mix_bits(mask: int) -> int:
    mixed = (mask * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return mixed ^ (mixed >> 29)


def _desk_rule(m: int, subset: frozenset[int]) -> int:
    mask = sum(1 << t for t in subset)
    return 1 + (bin(_mix_bits(mask)).count("1") & 1)


def _parity_rule(m: int, subset: frozenset[int]) -> int:
    return 1 + (len(subset) & 1)


@dataclass(frozen=True)
class HardFamily:
    """Explicit multilinear family given by a deterministic coefficient rule.

    Member m is the polynomial sum_T rule(m, T) * prod_{t in T} y_t over
    subsets T of {0..m-1}.  Both shipped rules take values in {1, 2}, so
    every member has full support.  The rule is evaluated in one place,
    evaluate_raw, in two shapes: at one point of raw values, or at many
    points at once, one numpy column per variable; evaluate wraps the
    first shape in Scalars.
    """

    name: str
    coefficient_rule: Callable[[int, frozenset[int]], int]

    def evaluate(self, m: int, ring: Ring, values: Sequence[Scalar]) -> Scalar:
        return ring.scalar(self.evaluate_raw(m, ring, [ring.scalar(v).value for v in values]))

    def evaluate_raw(self, m: int, ring: Ring, values: Sequence):
        """Member m at raw values over ring, by ring.add and ring.mul alone.

        values holds m raw values, or m numpy columns of equal length (as
        evaluate_batch reads them), and the result has the same shape.
        """
        if len(values) != m:
            raise ParamError(f"expected {m} values, got {len(values)}")
        add, mul = ring.add, ring.mul
        total = 0
        for mask in range(1 << m):
            subset = frozenset(t for t in range(m) if mask >> t & 1)
            term = self.coefficient_rule(m, subset)
            for t in subset:
                term = mul(term, values[t])
            total = add(total, term)
        return total

    def polynomial(self, m: int, ring: Ring) -> SparsePolynomial:
        """Expansion over variables y_1..y_m, for oracles and tests."""
        terms = {}
        for mask in range(1 << m):
            subset = frozenset(t for t in range(m) if mask >> t & 1)
            mono = Monomial.from_exponents({t + 1: 1 for t in subset})
            terms[mono] = ring.scalar(self.coefficient_rule(m, subset))
        return SparsePolynomial(ring, COMMUTATIVE, m, terms)


HARD_FAMILIES = {
    "desk-rule": HardFamily("desk-rule", _desk_rule),
    "parity-rule": HardFamily("parity-rule", _parity_rule),
}


_GRID_BUDGET = 1_000_000


def nw_pit(
    c,
    hf: HardFamily,
    m: int,
    sample_size: int | None = None,
    grid_budget: int = _GRID_BUDGET,
) -> Verdict:
    """Deterministic grid test of C(P_m(y|S_1), ..., P_m(y|S_n)).

    Evaluates the composed polynomial F on every point of S^u, where u
    is the design universe and S the canonical sample set, in
    itertools.product order; the witness is the first nonzero point.  A
    zero input always yields a zero verdict; a zero verdict on a nonzero
    input would contradict the family's assumed hardness, which is not
    checked here: a zero verdict shows only that F vanishes on the grid,
    where a set nw_design repeats feeds its variables equal inputs.  The
    S^m values of P_m come from one batched pass of raw arithmetic over
    all keys; the grid points then run in the batches schwartz_zippel
    uses.
    """
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("the grid tester handles commutative circuits only")
    design, size = _grid_shape(
        c.num_variables, syntactic_degree(c), m, sample_size, grid_budget
    )
    ring = c.ring
    points = ring.sample_points(size)

    # perfbench's traced run resolves this nested function by name.
    def inner(keys: np.ndarray) -> np.ndarray:
        return hf.evaluate_raw(m, ring, keys)

    table = _family_table(ring, m, points, inner)
    return _grid_test(partial(evaluate_batch, c), _cells(c), ring, design, points, table)


def _grid_shape(
    n: int, degree: int, m: int, sample_size: int | None, grid_budget: int
) -> tuple[NWDesign, int]:
    """nw_pit's design and sample size for n variables and a degree, checked against the budget."""
    design = nw_design(n, m)
    if sample_size is None:
        sample_size = degree * m + 1
    elif sample_size < 1:
        raise ParamError(f"sample_size must be >= 1, got {sample_size}")
    universe = design.universe_size
    if sample_size**universe > grid_budget:
        raise GridTooLarge(
            f"grid {sample_size}^{universe} exceeds budget {grid_budget}"
        )
    return design, sample_size


def _family_table(
    ring: Ring, m: int, points: Sequence[Scalar], values: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """P_m's raw value at every key, given values(key columns) for all keys at once.

    P_m restricted to a design set depends only on the grid coordinates
    of the set (its key), the same way for every set: one table of S^m
    values, where key (k_1..k_m) sits at row k_1*S^(m-1) + ... + k_m,
    the itertools.product order.  Row i of the key columns holds the raw
    point k_(i+1) of every key, in batch_dtype(ring), so the table is one
    evaluation over columns.
    """
    raw = _value_table(ring, points)
    return values(raw[np.indices((len(points),) * m).reshape(m, -1)])


def _grid_test(
    evaluator: Evaluator,
    cells: int,
    ring: Ring,
    design: NWDesign,
    points: Sequence[Scalar],
    table: np.ndarray,
) -> Verdict:
    """nw_pit's run over the grid of points, given the table of P_(design.m).

    evaluator reads one column per design set; cells is what one point
    of it stores (see _batches).
    """
    m, universe = design.m, design.universe_size
    side = len(points)
    weights = np.zeros((design.n, universe), dtype=np.int64)
    for i, s in enumerate(design.sets):
        for k, u in enumerate(sorted(s)):
            weights[i, u] = side ** (m - 1 - k)
    for start, stop in _batches(ring, cells, side**universe):
        # Digits of grid index g in product order: the last one fastest.
        rest = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((universe, rest.size), dtype=np.int64)
        for u in reversed(range(universe)):
            rest, digits[u] = np.divmod(rest, side)
        hit = _first_nonzero(evaluator, table, weights @ digits)
        if hit is not None:
            return Verdict("nonzero", tuple(points[t] for t in digits[:, hit]))
    return Verdict("zero")


# ---------------------------------------------------------------------------
# Permanent verification

@dataclass(frozen=True)
class PermVerdict:
    status: str  # "accept" or "reject"
    failing_index: int | None = None
    witness: tuple[Scalar, ...] | None = None

    @property
    def accepted(self) -> bool:
        return self.status == "accept"


@dataclass(frozen=True)
class PermCheckInstance:
    """The candidate and the identity programs B_k.

    B_k subtracts the first-row Laplace expansion from C_k, the
    candidate restricted to its k x k corner, so the candidate computes
    the permanent exactly when every B_k is zero.  verify_permanent_circuit
    tests these identities without this object: it evaluates the
    candidate at the restricted and minor points themselves, and the
    tests check it against these programs.  identities converts them to
    staggered circuits with slp_to_circuit on every read.
    """

    candidate: LayeredCircuit
    n: int
    programs: tuple[StraightLineProgram, ...]

    @property
    def identities(self) -> tuple[LayeredCircuit, ...]:
        return tuple(slp_to_circuit(program) for program in self.programs)


def _restriction_leaves(ring: Ring, n: int, k: int) -> dict[int, Leaf]:
    """x_ij reads 1 if i = j else 0, for every entry outside the k x k corner."""
    one, zero = ConstLeaf(ring.one()), ConstLeaf(ring.zero())
    return {
        permanent_var_index(n, i, j): one if i == j else zero
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i > k or j > k
    }


def _minor_leaves(ring: Ring, n: int, k: int, i: int) -> dict[int, Leaf]:
    """Read C_{k-1} as the minor of the k x k corner lacking row 1 and column i."""
    leaves = _restriction_leaves(ring, n, k - 1)
    for a in range(1, k):
        for b in range(1, k):
            col = b if b < i else b + 1
            leaves[permanent_var_index(n, a, b)] = VarLeaf(permanent_var_index(n, a + 1, col))
    return leaves


def _perm_order(c: LayeredCircuit) -> int:
    """The order n of a commutative candidate over n x n variables."""
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("the permanent is a commutative polynomial")
    n = math.isqrt(c.num_variables)
    if n * n != c.num_variables or n < 1:
        raise ParamError(
            f"candidate must read an n x n grid, got {c.num_variables} variables"
        )
    return n


def perm_check_instance(c: LayeredCircuit) -> PermCheckInstance:
    """Build every identity program for a candidate.

    The candidate is staggered once.  Each restriction C_k, and each
    minor of C_{k-1}, is that one program re-emitted with its variable
    reads rewritten: a fixed entry reads its constant, a minor entry
    reads the variable it is renamed to.  Staggering keys on gate ids
    and the copy table, never on leaves, so each re-emission equals the
    staggering of the rewritten circuit.  Each B_k runs these in one
    register pool plus a single accumulator, so its width exceeds the
    candidate's by at most 2.  This is the width-bounded form of the
    identities; verify_permanent_circuit computes the same values by
    evaluating the candidate, and builds none of these programs.
    """
    n = _perm_order(c)
    ring = c.ring
    # Staggered on a copy sharing the read-only gate table and the report
    # the candidate holds, if any: validate stores its report on the
    # circuit it checks, and the caller's candidate should not change.
    program = staggerize(_renamed(c, f"C_{n}"))
    acc = program.register_count
    programs = []
    for k in range(1, n + 1):
        sb = SlpBuilder(ring, c.mode, c.num_variables, register_count=acc + 1, name=f"B_{k}")
        # Later runs clear the registers the program reads before writing.
        emitter = _BodyEmitter(sb, program, None)
        out = emitter.run(leaves=_restriction_leaves(ring, n, k))
        sb.apply(acc, "add", sb.reg(acc), sb.reg(out))
        for i in range(1, k + 1):
            if k == 1:
                out = 0
                sb.load(out, sb.const(1))  # the empty minor's permanent
            else:
                out = emitter.run(leaves=_minor_leaves(ring, n, k, i))
            sb.apply(out, "mul", sb.var(permanent_var_index(n, 1, i)), sb.reg(out))
            sb.apply(out, "mul", sb.const(-1), sb.reg(out))
            sb.apply(acc, "add", sb.reg(acc), sb.reg(out))
        programs.append(sb.finish(acc))
    return PermCheckInstance(candidate=c, n=n, programs=tuple(programs))


def _laplace_rows(n: int, k: int) -> np.ndarray:
    """Row of [X; 0; 1] that each variable reads, for every block of B_k.

    Row v-1 of X holds x_v at every point, and rows n*n and n*n + 1 hold
    0 and 1.  Block 0 is R_k X: an entry of the k x k corner reads
    itself, every other entry the identity matrix's.  Block i, for k >= 2,
    is M_{k,i} X: entry (a, b) of the (k-1) x (k-1) corner reads x_(a+1, c),
    c = b if b < i else b + 1, and every other entry the identity's.
    For k = 1 the minor is the constant 1 and has no block.
    """

    def block(j: int, entry: Callable[[int, int], int]) -> list[int]:
        return [
            entry(a, b) - 1 if a <= j and b <= j else n * n + (a == b)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
        ]

    def var(a: int, b: int) -> int:
        return permanent_var_index(n, a, b)

    blocks = [block(k, var)]
    if k > 1:
        blocks += [
            block(k - 1, lambda a, b, i=i: var(a + 1, b if b < i else b + 1))
            for i in range(1, k + 1)
        ]
    return np.array(blocks)


def _laplace_identity(c: LayeredCircuit, n: int, k: int) -> tuple[Evaluator, int]:
    """B_k as an evaluator of raw columns, and the values it stores per point.

    One evaluate_batch of c runs every block of _laplace_rows(n, k) at
    once; B_k = C(R_k X) - sum_i x_1i * C(M_{k,i} X) then combines the
    blocks with the ring's raw add, mul and neg, exactly as the program
    B_k does.
    """
    rows = _laplace_rows(n, k)
    blocks = len(rows)
    ring = c.ring
    add, mul, neg = ring.add, ring.mul, ring.neg
    constants = np.array([[ring.zero().value], [ring.one().value]], dtype=batch_dtype(ring))
    first_row = [permanent_var_index(n, 1, i) - 1 for i in range(1, k + 1)]

    def evaluator(x: np.ndarray) -> np.ndarray:
        points = x.shape[1]
        padded = np.concatenate([x, np.broadcast_to(constants, (2, points))])
        columns = padded[rows].transpose(1, 0, 2).reshape(n * n, blocks * points)
        values = evaluate_batch(c, columns).reshape(blocks, points)
        total = values[0]
        for i, row in enumerate(first_row, start=1):
            total = add(total, neg(x[row] if k == 1 else mul(x[row], values[i])))
        return total

    return evaluator, _cells(c) * blocks


def _laplace_degrees(c: LayeredCircuit, n: int) -> list[int]:
    """The syntactic degree of every B_k, as its program's would read.

    d_k is c's degree with 1 for the k x k corner's variables and 0 for
    every other variable and every constant; B_k's is max(d_k, 1 + d_(k-1)),
    with d_0 = 0 for the constant minor of B_1.  d_n, with every variable
    in the corner, is the degree validate reports.
    """
    degrees, previous = [], 0
    for k in range(1, n + 1):
        if k == n:
            d = syntactic_degree(c)
        else:
            corner = {permanent_var_index(n, a, b) for a in range(1, k + 1) for b in range(1, k + 1)}
            d = fold(c, lambda i: int(i in corner), lambda v: 0, max, operator.add)
        degrees.append(max(d, 1 + previous))
        previous = d
    return degrees


def verify_permanent_circuit(
    c: LayeredCircuit,
    backend: str = "schwartz_zippel",
    seed: int = 0,
    trials: int = 20,
    m: int = 2,
    sample_size: int | None = None,
    grid_budget: int = _GRID_BUDGET,
) -> PermVerdict:
    """Accept iff every Laplace identity of the candidate tests zero.

    Identity B_k is tested as perm_check_instance(c).programs[k-1] would
    be, with the same points, verdicts and witnesses, but no program is
    built: each batch of points is one evaluate_batch of the candidate
    over k+1 blocks of transformed columns (see _laplace_identity), and
    the sample set or grid is sized from B_k's syntactic degree.

    Each backend reads its own options.  schwartz_zippel reads trials and
    seed (identity k draws from seed + k) and ignores m, sample_size and
    grid_budget: it samples from max(1, 2 * deg B_k) points, as
    schwartz_zippel does by default.  nw_pit reads m, sample_size and
    grid_budget and ignores trials and seed: it runs nw_pit's test with
    desk-rule at m, and builds the hard-family table once per sample
    size: the identities share ring and m, and a given sample_size all
    of them.  Every identity's grid is sized before any runs, so a grid
    past the budget raises GridTooLarge at once, even where an earlier
    identity would have rejected.  The candidate is validated on a copy,
    so it is left as it was.
    """
    if backend not in ("schwartz_zippel", "nw_pit"):
        raise ParamError(f"unknown backend {backend!r}")
    n = _perm_order(c)
    # A copy sharing the read-only gate table and the report the
    # candidate holds, if any: validate stores its report on the circuit
    # it checks, and the caller's candidate should not change.
    candidate = _renamed(c, f"C_{n}")
    validate(candidate)
    degrees = _laplace_degrees(candidate, n)
    if backend == "nw_pit":
        shapes = [_grid_shape(n * n, d, m, sample_size, grid_budget) for d in degrees]
    desk, ring = HARD_FAMILIES["desk-rule"], c.ring
    tables: dict[int, tuple[list[Scalar], np.ndarray]] = {}
    for k, degree in enumerate(degrees, start=1):
        evaluator, cells = _laplace_identity(candidate, n, k)
        if backend == "schwartz_zippel":
            verdict = _sample_test(
                evaluator, cells, ring, n * n, trials, degree, None, seed + k
            )
        else:
            design, size = shapes[k - 1]
            if size not in tables:
                points = ring.sample_points(size)
                tables[size] = points, _family_table(
                    ring, m, points, lambda keys: desk.evaluate_raw(m, ring, keys)
                )
            verdict = _grid_test(evaluator, cells, ring, design, *tables[size])
        if not verdict.is_zero:
            return PermVerdict("reject", failing_index=k, witness=verdict.witness)
    return PermVerdict("accept")
