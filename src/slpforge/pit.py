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
                    here)
  verify_permanent_circuit
                    reduces "does C compute the permanent" to n circuit
                    identities via Laplace expansion along the first
                    row, then delegates each identity to a backend

The hard families shipped here are explicit multilinear polynomials
whose coefficients come from a cheap deterministic rule.  They make the
mechanism testable at desk scale; nothing about them is known to be
hard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import (
    BATCH_MODULUS_LIMIT,
    AlgebraicBranchingProgram,
    LayeredCircuit,
    SlpBuilder,
    StraightLineProgram,
    evaluate,
    evaluate_mod_p,
    slp_to_circuit,
    substitute_constants,
    syntactic_degree,
)
from .errors import GridTooLarge, ModeMismatch, ParamError
from .families import permanent_var_index
from .polynomials import COMMUTATIVE, Monomial, SparsePolynomial
from .rings import PrimeField, Ring, Scalar, is_probable_prime
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


# A batch of points holds at most this many int64 values: fold keeps
# every gate of a circuit, so a 17k-gate circuit gets 61 points a batch.
_BATCH_CELLS = 1 << 20
_BATCH_POINTS = 4096


def _batch_modulus(c) -> int | None:
    """p when the testers evaluate c in int64 batches (F_p, p < 2^31)."""
    ring = c.ring
    if isinstance(ring, PrimeField) and ring.p < BATCH_MODULUS_LIMIT:
        return ring.p
    return None


def _batch_points(c) -> int:
    """Points per batch, so one batch stays within _BATCH_CELLS values."""
    if isinstance(c, StraightLineProgram):
        cells = c.register_count
    elif isinstance(c, AlgebraicBranchingProgram):
        cells = c.size + len(c.edges)
    else:
        cells = c.size
    return max(1, min(_BATCH_POINTS, _BATCH_CELLS // max(1, cells)))


def _first_nonzero(c, columns: np.ndarray, p: int) -> int | None:
    """Index of the first point (column) where c is nonzero mod p."""
    hits = np.flatnonzero(evaluate_mod_p(c, columns, p))
    return int(hits[0]) if hits.size else None


def schwartz_zippel(
    c,
    trials: int,
    degree_bound: int | None = None,
    seed: int = 0,
    sample_size: int | None = None,
) -> Verdict:
    """Random evaluation test over a fixed sample grid.

    A nonzero verdict is always correct and returns the witness point.
    A zero verdict is wrong with probability at most
    (degree_bound / sample_size) per trial, by the degree bound on the
    number of roots along each coordinate.  Over F_p with p < 2^31 the
    trials run in int64 batches; the verdict and witness are those of
    the one-trial-at-a-time loop used for every other ring.
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
    n = c.num_variables
    p = _batch_modulus(c)
    if p is None:
        for _ in range(trials):
            indices = rng.integers(0, sample_size, size=n)
            assignment = [points[i] for i in indices]
            if not evaluate(c, assignment).is_zero:
                return Verdict("nonzero", tuple(assignment))
        return Verdict("zero")

    residues = np.array([pt.value for pt in points], dtype=np.int64)
    batch = _batch_points(c)
    for start in range(0, trials, batch):
        indices = np.empty((n, min(batch, trials - start)), dtype=np.int64)
        # One draw per trial, in trial order, exactly as the scalar loop.
        for t in range(indices.shape[1]):
            indices[:, t] = rng.integers(0, sample_size, size=n)
        hit = _first_nonzero(c, residues[indices], p)
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
    """Design of n sets of size m with intersections below ceil(log2 n)."""
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
    every member has full support.
    """

    name: str
    coefficient_rule: Callable[[int, frozenset[int]], int]

    def evaluate(self, m: int, ring: Ring, values: Sequence[Scalar]) -> Scalar:
        if len(values) != m:
            raise ParamError(f"expected {m} values, got {len(values)}")
        total = ring.zero()
        for mask in range(1 << m):
            subset = frozenset(t for t in range(m) if mask >> t & 1)
            term = ring.scalar(self.coefficient_rule(m, subset))
            for t in subset:
                term = term * values[t]
            total = total + term
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


def nw_pit(
    c,
    hf: HardFamily,
    m: int,
    sample_size: int | None = None,
    grid_budget: int = 1_000_000,
) -> Verdict:
    """Deterministic grid test of C(P_m(y|S_1), ..., P_m(y|S_n)).

    Evaluates the composed polynomial F on every point of S^u, where u
    is the design universe and S the canonical sample set, in
    itertools.product order; the witness is the first nonzero point.  A
    zero input always yields a zero verdict; a zero verdict on a nonzero
    input would contradict the family's assumed hardness, which is not
    checked here.  Over F_p with p < 2^31 the grid runs in int64
    batches, with the same verdict and witness.
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

    # P_m restricted to a set depends only on the grid coordinates of the
    # set (its key), the same way for every set.
    cache: dict[tuple[int, ...], Scalar] = {}

    def inner(key: tuple[int, ...]) -> Scalar:
        if key not in cache:
            cache[key] = hf.evaluate(m, ring, [points[t] for t in key])
        return cache[key]

    p = _batch_modulus(c)
    if p is None:
        for grid_point in itertools.product(range(sample_size), repeat=universe):
            assignment = [inner(tuple(grid_point[u] for u in s)) for s in ordered]
            if not evaluate(c, assignment).is_zero:
                return Verdict("nonzero", tuple(points[t] for t in grid_point))
        return Verdict("zero")

    side = len(points)
    keys = itertools.product(range(side), repeat=m)
    table = np.array([inner(key).value for key in keys], dtype=np.int64)
    # The key (k_1..k_m) of set i sits at row k_1*S^(m-1) + ... + k_m.
    weights = np.zeros((len(ordered), universe), dtype=np.int64)
    for i, s in enumerate(ordered):
        for k, u in enumerate(s):
            weights[i, u] = side ** (m - 1 - k)
    total = side**universe
    batch = _batch_points(c)
    for start in range(0, total, batch):
        # Digits of grid index g in product order: the last one fastest.
        rest = np.arange(start, min(start + batch, total), dtype=np.int64)
        digits = np.empty((universe, rest.size), dtype=np.int64)
        for u in reversed(range(universe)):
            rest, digits[u] = np.divmod(rest, side)
        hit = _first_nonzero(c, table[weights @ digits], p)
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
    """The candidate, its restrictions C_k, and the identities B_k.

    B_k subtracts the first-row Laplace expansion from C_k, so the
    candidate computes the permanent exactly when every B_k is zero.
    """

    candidate: LayeredCircuit
    n: int
    restricted: tuple[LayeredCircuit, ...]
    identities: tuple[LayeredCircuit, ...]


def _restriction_constants(n: int, k: int) -> dict[int, int]:
    """x_ij <- 1 if i = j else 0, for every entry outside the k x k corner."""
    fixed = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > k or j > k:
                fixed[permanent_var_index(n, i, j)] = 1 if i == j else 0
    return fixed


def minor_variable_map(n: int, k: int, i: int) -> dict[int, int]:
    """Feed the (k-1)-corner circuit the minor lacking row 1 and column i."""
    renames = {}
    for a in range(1, k):
        for b in range(1, k):
            col = b if b < i else b + 1
            renames[permanent_var_index(n, a, b)] = permanent_var_index(n, a + 1, col)
    return renames


def perm_check_instance(c: LayeredCircuit) -> PermCheckInstance:
    """Build every restriction and identity circuit for a candidate.

    Each B_k is assembled from staggered forms of C_k and the minor
    reindexings of C_{k-1}, sharing one register pool plus a single
    accumulator, so its width exceeds the candidate's by at most 2.
    """
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("the permanent is a commutative polynomial")
    n = math.isqrt(c.num_variables)
    if n * n != c.num_variables or n < 1:
        raise ParamError(
            f"candidate must read an n x n grid, got {c.num_variables} variables"
        )
    restricted = [
        substitute_constants(c, _restriction_constants(n, k), name=f"C_{k}")
        for k in range(1, n + 1)
    ]
    programs = [staggerize(rc) for rc in restricted]

    identities = []
    for k in range(1, n + 1):
        parts = [programs[k - 1]]
        for i in range(1, k + 1):
            if k == 1:
                sb0 = SlpBuilder(c.ring, c.mode, c.num_variables, name="one")
                sb0.load(0, sb0.const(1))
                parts.append(sb0.finish(0))
            else:
                minor = substitute_constants(
                    restricted[k - 2],
                    {},
                    name=f"C_{k - 1}_minor_{i}",
                    renames=minor_variable_map(n, k, i),
                )
                parts.append(staggerize(minor))
        pool = max(p.register_count for p in parts)
        acc = pool
        sb = SlpBuilder(
            c.ring, c.mode, c.num_variables, register_count=pool + 1, name=f"B_{k}"
        )
        for i, part in enumerate(parts):
            # Earlier parts may have dirtied registers this one reads blind.
            out = _BodyEmitter(sb, part, None, dirty=i > 0).run()
            if i > 0:
                sb.apply(out, "mul", sb.var(permanent_var_index(n, 1, i)), sb.reg(out))
                sb.apply(out, "mul", sb.const(-1), sb.reg(out))
            sb.apply(acc, "add", sb.reg(acc), sb.reg(out))
        identities.append(slp_to_circuit(sb.finish(acc)))
    return PermCheckInstance(
        candidate=c,
        n=n,
        restricted=tuple(restricted),
        identities=tuple(identities),
    )


def verify_permanent_circuit(
    c: LayeredCircuit,
    backend: str = "schwartz_zippel",
    seed: int = 0,
    trials: int = 20,
    m: int = 2,
    sample_size: int | None = None,
) -> PermVerdict:
    """Accept iff every Laplace identity of the candidate tests zero.

    The randomized backend derives an independent seed per identity; the
    grid backend is deterministic and ignores the seed.
    """
    if backend not in ("schwartz_zippel", "nw_pit"):
        raise ParamError(f"unknown backend {backend!r}")
    instance = perm_check_instance(c)
    for k, identity in enumerate(instance.identities, start=1):
        if backend == "schwartz_zippel":
            verdict = schwartz_zippel(identity, trials=trials, seed=seed + k)
        else:
            verdict = nw_pit(
                identity, HARD_FAMILIES["desk-rule"], m, sample_size=sample_size
            )
        if not verdict.is_zero:
            return PermVerdict("reject", failing_index=k, witness=verdict.witness)
    return PermVerdict("accept")
