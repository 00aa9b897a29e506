"""Builders for the explicit polynomial families the toolkit studies.

Five families, each with at least two independent routes to the same
polynomial so the constructions can be cross-checked:

  block family      alternating monotone formula over disjoint variable
                    blocks, and its bounded-width circuit form
  palindromes       noncommutative sums of even palindromic words,
                    scheduled into two registers
  balanced words    sums of all words with equal letter counts, as an
                    ABP over lattice states and as a two-register
                    interpolation program
  permanent         direct sparse expansion over a square variable grid

The block family doubles as a projection target: project_to_formula
rewrites any small alternating formula as a substitution into the
family's variables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .circuits import (
    AlgebraicBranchingProgram,
    ConstLeaf,
    LayeredCircuit,
    LinearForm,
    SlpBuilder,
    StraightLineProgram,
    VarLeaf,
    slp_to_circuit,
)
from .errors import (
    BadCharacteristic,
    CapacityExceeded,
    DegreeCapExceeded,
    ModeMismatch,
    ParamError,
    TermCapExceeded,
)
from .formulas import FOp, Formula, FormulaNode, fadd, fmul, fvar
from .polynomials import (
    COMMUTATIVE,
    DEFAULT_CAPS,
    ExpansionCaps,
    Monomial,
    NONCOMMUTATIVE,
    SparsePolynomial,
)
from .rings import RATIONALS, Ring, lagrange_grid


# ---------------------------------------------------------------------------
# The block family

@dataclass(frozen=True)
class FamilyParams:
    """Shape of one block-family instance.

    ell is the fan-in of every gate and k the number of sum/product
    level pairs.  The instance is a polynomial in ell^(2k) variables,
    homogeneous of degree ell^k.
    """

    ell: int
    k: int

    def __post_init__(self):
        if not isinstance(self.ell, int) or self.ell < 2:
            raise ParamError(f"ell must be an integer >= 2, got {self.ell!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ParamError(f"k must be an integer >= 1, got {self.k!r}")

    @property
    def num_variables(self) -> int:
        return self.ell ** (2 * self.k)

    @property
    def degree(self) -> int:
        return self.ell**self.k

    @property
    def monomial_count(self) -> int:
        # ell^(1 + ell + ... + ell^(k-1)); one summand choice per block.
        return self.ell ** ((self.ell**self.k - 1) // (self.ell - 1))


def _block_offset(ell: int, k: int, offset: int, i: int, j: int) -> int:
    """First variable of sub-block (i, j) of a depth-k block at offset."""
    sub = ell ** (2 * (k - 1))
    return offset + (i * ell + j) * sub


def _block_formula(ell: int, k: int, offset: int) -> FOp:
    summands = []
    for i in range(ell):
        if k == 1:
            factors: list[FormulaNode] = [
                fvar(offset + i * ell + j) for j in range(ell)
            ]
        else:
            factors = [
                _block_formula(ell, k - 1, _block_offset(ell, k, offset, i, j))
                for j in range(ell)
            ]
        summands.append(fmul(*factors))
    return fadd(*summands)


def build_P(
    params: FamilyParams,
    form: str = "formula",
    ring: Ring = RATIONALS,
) -> Formula | LayeredCircuit:
    """Build one block-family instance.

    form "formula" gives the alternating monotone formula of depth 2k;
    form "circuit" schedules that formula into a layered circuit of
    width at most 2k.
    """
    root = _block_formula(params.ell, params.k, 1)
    formula = Formula(ring, COMMUTATIVE, params.num_variables, root)
    if form == "formula":
        return formula
    if form == "circuit":
        from .transforms import depth_to_width

        return depth_to_width(formula, name=f"P_{params.ell}_{params.k}")
    raise ParamError(f"form must be 'formula' or 'circuit', got {form!r}")


def _block_monomials(ell: int, k: int, offset: int) -> list[Monomial]:
    out: list[Monomial] = []
    for i in range(ell):
        if k == 1:
            exps = {offset + i * ell + j: 1 for j in range(ell)}
            out.append(Monomial.from_exponents(exps))
            continue
        choices = [
            _block_monomials(ell, k - 1, _block_offset(ell, k, offset, i, j))
            for j in range(ell)
        ]
        for pick in itertools.product(*choices):
            mono = pick[0]
            for extra in pick[1:]:
                mono = mono * extra
            out.append(mono)
    return out


def family_monomial_set(
    params: FamilyParams, caps: ExpansionCaps = DEFAULT_CAPS
) -> frozenset[Monomial]:
    """Support of the block-family polynomial, computed from the recurrence."""
    if params.monomial_count > caps.max_terms:
        raise TermCapExceeded(
            f"family has {params.monomial_count} monomials, cap is {caps.max_terms}"
        )
    if params.degree > caps.max_degree:
        raise DegreeCapExceeded(
            f"family degree {params.degree} exceeds cap {caps.max_degree}"
        )
    return frozenset(_block_monomials(params.ell, params.k, 1))


# ---------------------------------------------------------------------------
# Projection into the block family

def _fill_block(mapping: dict[int, FormulaNode], value: ConstLeaf, k: int, offset: int, ell: int):
    for var in range(offset, offset + ell ** (2 * k)):
        mapping[var] = value


def _make_one(mapping, zero: ConstLeaf, one: ConstLeaf, ell: int, k: int, offset: int):
    """Pin a block's value to 1: first summand all ones, the rest zero."""
    if k == 0:
        mapping[offset] = one
        return
    for j in range(ell):
        _make_one(mapping, zero, one, ell, k - 1, _block_offset(ell, k, offset, 0, j))
    for i in range(1, ell):
        for j in range(ell):
            _fill_block(mapping, zero, k - 1, _block_offset(ell, k, offset, i, j), ell)


class _Projector:
    def __init__(self, target: Formula, params: FamilyParams):
        self.ell = params.ell
        self.mapping: dict[int, FormulaNode] = {}
        self.zero = ConstLeaf(target.ring.zero())
        self.one = ConstLeaf(target.ring.one())

    def fill_zero(self, k: int, offset: int):
        _fill_block(self.mapping, self.zero, k, offset, self.ell)

    def fill_one(self, k: int, offset: int):
        _make_one(self.mapping, self.zero, self.one, self.ell, k, offset)

    def embed_block(self, node: FormulaNode, k: int, offset: int):
        """Make the depth-k block at offset compute the value of node."""
        ell = self.ell
        if k == 0:
            if isinstance(node, (VarLeaf, ConstLeaf)):
                self.mapping[offset] = node
                return
            raise CapacityExceeded("formula is deeper than the family allows")
        if isinstance(node, FOp) and node.op == "add":
            children = node.children
            if len(children) > ell:
                raise CapacityExceeded(
                    f"sum fan-in {len(children)} exceeds family fan-in {ell}"
                )
        else:
            children = (node,)  # a product or leaf acts as a one-summand sum
        for i, child in enumerate(children):
            self.embed_product(child, k, offset, i)
        for i in range(len(children), ell):
            for j in range(ell):
                self.fill_zero(k - 1, _block_offset(ell, k, offset, i, j))

    def embed_product(self, node: FormulaNode, k: int, offset: int, i: int):
        """Make summand i of the block at offset compute the value of node."""
        ell = self.ell
        if isinstance(node, FOp) and node.op == "mul":
            factors = node.children
            if len(factors) > ell:
                raise CapacityExceeded(
                    f"product fan-in {len(factors)} exceeds family fan-in {ell}"
                )
        else:
            factors = (node,)  # a sum or leaf acts as a one-factor product
        for j, factor in enumerate(factors):
            self.embed_block(factor, k - 1, _block_offset(ell, k, offset, i, j))
        for j in range(len(factors), ell):
            self.fill_one(k - 1, _block_offset(ell, k, offset, i, j))


def project_to_formula(
    target: Formula, params: FamilyParams
) -> dict[int, FormulaNode]:
    """Substitution map realizing target inside the block family.

    Maps every family variable to a target variable, the constant 0, or
    the constant 1 (arbitrary target constants pass through unchanged).
    Substituting into build_P(params, "formula") and expanding yields
    the expansion of target.  Raises CapacityExceeded when the target
    is deeper than 2k or uses a fan-in above ell.
    """
    if target.mode != COMMUTATIVE:
        raise ModeMismatch("projection targets must be commutative formulas")
    proj = _Projector(target, params)
    proj.embed_block(target.root, params.k, 1)
    return proj.mapping


# ---------------------------------------------------------------------------
# Palindromic words in two registers

def build_palindrome(n: int, ring: Ring = RATIONALS) -> LayeredCircuit:
    """Sum of all palindromic words of length 2n over two letters.

    Variables 1 and 2 are the two letters.  The circuit has width
    exactly 2: the recurrence wraps the previous sum in matching outer
    letters, and both branches share one pair of registers.
    """
    if not isinstance(n, int) or n < 1:
        raise ParamError(f"n must be an integer >= 1, got {n!r}")
    sb = SlpBuilder(ring, NONCOMMUTATIVE, 2, name=f"palindrome_{n}")
    # length-2 base: R0 = x1*x1 + x2*x2
    sb.apply(0, "mul", sb.var(1), sb.var(1))
    sb.apply(1, "mul", sb.var(2), sb.var(2))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    for _ in range(n - 1):
        sb.apply(1, "mul", sb.var(1), sb.reg(0))
        sb.apply(1, "mul", sb.reg(1), sb.var(1))
        sb.apply(0, "mul", sb.var(2), sb.reg(0))
        sb.apply(0, "mul", sb.reg(0), sb.var(2))
        sb.apply(0, "add", sb.reg(1), sb.reg(0))
    return slp_to_circuit(sb.finish(0))


# ---------------------------------------------------------------------------
# Balanced words, two ways

def build_E_abp(n: int, ring: Ring = RATIONALS) -> AlgebraicBranchingProgram:
    """Sum of all length-2n words with n of each letter, as an ABP.

    States are (position, letter-count imbalance); the walk must return
    to imbalance 0 after 2n steps.  Vertex count is (n+1)^2.
    """
    if not isinstance(n, int) or n < 1:
        raise ParamError(f"n must be an integer >= 1, got {n!r}")
    one = ring.one()
    zero = ring.zero()

    def vid(pos: int, imbalance: int) -> int:
        return pos * (2 * n + 1) + imbalance + n + 1

    def valid(pos: int, imbalance: int) -> bool:
        return abs(imbalance) <= min(pos, 2 * n - pos)

    layers = []
    for pos in range(2 * n + 1):
        layers.append(
            [vid(pos, b) for b in range(-pos, pos + 1, 2) if valid(pos, b)]
        )
    edges = []
    for pos in range(2 * n):
        for b in range(-pos, pos + 1, 2):
            if not valid(pos, b):
                continue
            for step, var in ((1, 1), (-1, 2)):
                if valid(pos + 1, b + step):
                    label = LinearForm(zero, {var: one})
                    edges.append((vid(pos, b), vid(pos + 1, b + step), label))
    return AlgebraicBranchingProgram(
        f"E{n}_abp",
        ring,
        2,
        layers,
        edges,
        vid(0, 0),
        vid(2 * n, 0),
        mode=NONCOMMUTATIVE,
    )


@dataclass(frozen=True)
class BenOrParams:
    """Shape data for the two-register balanced-words program.

    word_length is the power the seed linear form is raised to, chosen
    as the least power of two with room for all 2n letters; the heavy
    exponent tags the first letter so that one coefficient of the
    auxiliary variable isolates the balanced words.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParamError(f"n must be an integer >= 1, got {self.n!r}")

    @property
    def k(self) -> int:
        """Least k with n <= 2^k."""
        return (self.n - 1).bit_length()

    @property
    def word_length(self) -> int:
        return 2 ** (self.k + 1)

    @property
    def heavy_exponent(self) -> int:
        return self.word_length + 1

    @property
    def target_exponent(self) -> int:
        return self.heavy_exponent * self.n + self.n

    @property
    def multiplicity(self) -> int:
        """Number of slot choices realizing each balanced word."""
        return math.comb(self.word_length, 2 * self.n)


def build_E_width2(params: BenOrParams, ring: Ring) -> StraightLineProgram:
    """Sum of all balanced length-2n words in exactly two registers.

    For each sample point z, register 0 raises the seed form
    z^(N+1)*x1 + z*x2 + 1 to the power N by repeated squaring; the
    only words of auxiliary degree exactly n*(N+1) + n are the balanced
    ones, each appearing binom(N, 2n) times.  Register 1 accumulates
    the interpolation weights that extract that coefficient, divided by
    the multiplicity.
    """
    n = params.n
    N = params.word_length
    mult = ring.scalar(params.multiplicity)
    if mult.is_zero:
        raise BadCharacteristic(
            f"characteristic divides the word multiplicity {params.multiplicity}"
        )
    aux_degree = N * params.heavy_exponent  # largest power of z in the seed^N
    points, matrix = lagrange_grid(ring, aux_degree + 1)
    weights = [w / mult for w in matrix[params.target_exponent]]

    sb = SlpBuilder(
        ring, NONCOMMUTATIVE, 2, register_count=2, name=f"E{n}_width2"
    )
    for point, weight in zip(points, weights):
        if weight.is_zero:
            continue
        sb.apply(0, "mul", sb.const(point**N), sb.var(1))
        sb.apply(0, "add", sb.reg(0), sb.var(2))
        sb.apply(0, "mul", sb.const(point), sb.reg(0))
        sb.apply(0, "add", sb.reg(0), sb.const(1))
        for _ in range(params.k + 1):
            sb.apply(0, "mul", sb.reg(0), sb.reg(0))
        sb.apply(0, "mul", sb.reg(0), sb.const(weight))
        sb.apply(1, "add", sb.reg(1), sb.reg(0))
    return sb.finish(1)


# ---------------------------------------------------------------------------
# The permanent

def permanent_var_index(k: int, row: int, col: int) -> int:
    """Variable index of the (row, col) entry, rows and columns 1-based."""
    if not (1 <= row <= k and 1 <= col <= k):
        raise ParamError(f"entry ({row}, {col}) outside a {k} x {k} grid")
    return (row - 1) * k + col


def build_permanent_sparse(
    k: int,
    ring: Ring = RATIONALS,
    caps: ExpansionCaps = DEFAULT_CAPS,
) -> SparsePolynomial:
    """Permanent of a k x k grid of variables, expanded term by term."""
    if not isinstance(k, int) or k < 1:
        raise ParamError(f"k must be an integer >= 1, got {k!r}")
    if math.factorial(k) > caps.max_terms:
        raise TermCapExceeded(
            f"permanent of order {k} has {math.factorial(k)} terms, "
            f"cap is {caps.max_terms}"
        )
    if k > caps.max_degree:
        raise DegreeCapExceeded(f"degree {k} exceeds cap {caps.max_degree}")
    one = ring.one()
    terms = {}
    for perm in itertools.permutations(range(1, k + 1)):
        exps = {permanent_var_index(k, i, col): 1 for i, col in enumerate(perm, 1)}
        terms[Monomial.from_exponents(exps)] = one
    return SparsePolynomial(ring, COMMUTATIVE, k * k, terms)
