"""Power-series roots of circuit-defined polynomials, two independent ways.

A RootProblem packages a program P over (x_1..x_n, y) together with a
y-degree bound r, a target truncation degree m, and a starting scalar
y0 with P(0, y0) = 0 and dP/dy(0, y0) != 0.  Under those conditions a
unique power series f with f(0) = y0 and P(x, f) = 0 exists up to any
finite degree.

newton_series_root computes f symbolically by Newton iteration on
truncated series.  root_circuit assembles a straight-line program with
the same expansion out of at most r+1 substituted runs of P's live
steps per evaluation point, using the Newton result only to solve for
the scalar mixing coefficients.  The two routes share no arithmetic,
which is what makes comparing them a meaningful test.  The series, the
power products and the mixing solve run on the raw (terms, den) values
of polynomials.term_algebra, and their coefficients combine by the
ring's raw add, mul and div (rings.Ring); SparsePolynomial and Scalar
objects are built only for the results.
"""

from __future__ import annotations

from .circuits import (
    ConstOperand,
    SlpBuilder,
    StraightLineProgram,
    expand,
)
from .errors import (
    CharacteristicTooSmall,
    DegenerateRoot,
    DegreeBoundViolated,
    InvariantViolation,
    ModeMismatch,
    ParamError,
    SizeBudgetExceeded,
    TermCapExceeded,
    UnsolvableSystem,
)
from .polynomials import (
    COMMUTATIVE,
    DEFAULT_CAPS,
    ExpansionCaps,
    Monomial,
    SparsePolynomial,
    TermAlgebra,
    term_algebra,
)
from .rings import ScalarLike, lagrange_grid, poly_eval
from .transforms import _BodyEmitter, _prefix_weights


class RootProblem:
    """A polynomial P(x_bar, y), given as a program, with a simple root at x = 0.

    The last variable of ``program`` plays the role of y.  Construction
    expands the program once (under ``caps``) to extract the coefficient
    polynomials C_0..C_r with P = sum_i C_i(x_bar) y^i, and checks the
    two root conditions.  Every later product on the root path
    (newton_series_root, root_circuit) is taken under series_caps.
    Raises DegreeBoundViolated when the actual y-degree exceeds r,
    ParamError when y0 is not a root of P(0, y), and DegenerateRoot when
    the derivative at the root vanishes.
    """

    __slots__ = ("program", "r", "m", "y0", "coefficients", "xi", "base_point", "caps")

    def __init__(
        self,
        program: StraightLineProgram,
        r: int,
        m: int,
        y0: ScalarLike,
        caps: ExpansionCaps = DEFAULT_CAPS,
    ):
        if program.mode != COMMUTATIVE:
            raise ModeMismatch("root problems need a commutative program")
        if program.num_variables < 1:
            raise ParamError("program has no variables, so no y to solve for")
        if r < 0 or m < 0:
            raise ParamError(f"bounds must be nonnegative, got r={r}, m={m}")
        ring = program.ring
        y = program.num_variables
        n = y - 1
        y0 = ring.scalar(y0)

        full = expand(program, caps)
        split = full.coefficients_in(y)
        actual_r = max(split, default=0)
        if actual_r > r:
            raise DegreeBoundViolated(f"y-degree {actual_r} exceeds the stated bound {r}")

        # Coefficients are rebuilt over the x variables alone; their
        # monomials never mention y, so shrinking the arity is sound.
        coefficients = []
        for i in range(r + 1):
            c_i = split.get(i)
            terms = c_i.terms if c_i is not None else {}
            coefficients.append(SparsePolynomial(ring, COMMUTATIVE, n, terms))

        # C_i(0) is the unit coefficient of C_i, so P(0, y) = sum_i C_i(0) y^i.
        unit, zero = Monomial.unit(COMMUTATIVE), ring.zero()
        base_point = tuple(c.terms.get(unit, zero) for c in coefficients)
        if not poly_eval(base_point, y0).is_zero:
            raise ParamError("y0 is not a root of P at x_bar = 0")
        xi = poly_eval([i * b for i, b in enumerate(base_point)][1:], y0)
        if xi.is_zero:
            raise DegenerateRoot("derivative in y vanishes at the chosen root")

        object.__setattr__(self, "program", program)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "coefficients", tuple(coefficients))
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "base_point", base_point)

    def __setattr__(self, key, value):
        raise AttributeError("RootProblem is immutable")

    @property
    def num_x_variables(self) -> int:
        return self.program.num_variables - 1

    @property
    def series_caps(self) -> ExpansionCaps:
        """The caps for the series products: the term cap of ``caps`` alone.

        Every product on the root path is truncated to degree m at once,
        so truncation bounds the degree.  The degree cap is raised to the
        largest untruncated product, m + max(m, deg C_i), so that it never
        trips there.
        """
        top = max(c.degree() for c in self.coefficients)
        return ExpansionCaps(
            max_degree=self.m + max(self.m, top), max_terms=self.caps.max_terms
        )

    def index_set(self) -> list[tuple[int, ...]]:
        """All exponent vectors over (C_0..C_r) of total degree <= m, lex order."""
        return _simplex(self.r + 1, self.m)


def _simplex(length: int, total: int) -> list[tuple[int, ...]]:
    """Vectors of the given length with entries summing to <= total, lex order."""
    if length == 0:
        return [()]
    return [
        (first, *rest)
        for first in range(total + 1)
        for rest in _simplex(length - 1, total - first)
    ]


# ---------------------------------------------------------------------------
# Newton iteration on raw terms


def _series_algebra(rp: RootProblem) -> TermAlgebra:
    """The raw-term algebra of the root path: x variables, rp.series_caps."""
    return term_algebra(
        rp.program.ring, COMMUTATIVE, rp.num_x_variables, rp.series_caps
    )


def _poly_at_series(alg: TermAlgebra, coeffs, g, m: int):
    """sum_i coeffs[i] * g^i truncated to degree m, by Horner."""
    acc = alg.zero
    for c in reversed(coeffs):
        acc = alg.add(alg.truncate(alg.mul(acc, g), m), c)
    # The added coefficients are not truncated, so clip once at the end.
    return alg.truncate(acc, m)


def _series_inverse(alg: TermAlgebra, ring, u, m: int):
    """Multiplicative inverse of u modulo degree m+1; u(0) must be a unit."""
    terms, den = u
    u0 = terms.get(alg.unit)
    if not u0:
        raise InvariantViolation("series inverse at a non-unit")
    u0_inv = ring.div(den, u0)
    one = alg.one
    tail = alg.truncate(alg.add(one, alg.scale(u, -u0_inv)), m)
    acc = one
    term = one
    for _ in range(m):
        term = alg.truncate(alg.mul(term, tail), m)
        if term == alg.zero:
            break
        acc = alg.add(acc, term)
    return alg.scale(acc, u0_inv)


def _newton_terms(rp: RootProblem, alg: TermAlgebra):
    """newton_series_root(rp) as a raw value of alg."""
    ring = rp.program.ring
    char = ring.characteristic
    if 0 < char <= rp.m:
        raise CharacteristicTooSmall(
            f"characteristic {char} must be 0 or exceed the target degree {rp.m}"
        )
    m = rp.m
    coeffs = [alg.lift(c) for c in rp.coefficients]
    deriv_coeffs = [alg.scale(c, i) for i, c in enumerate(coeffs)][1:]

    g = alg.const(rp.y0)
    for _ in range(m.bit_length()):
        value = _poly_at_series(alg, coeffs, g, m)
        slope = _poly_at_series(alg, deriv_coeffs, g, m)
        step = alg.mul(value, _series_inverse(alg, ring, slope, m))
        g = alg.truncate(alg.add(g, alg.scale(alg.truncate(step, m), -1)), m)
    if _poly_at_series(alg, coeffs, g, m) != alg.zero:
        raise InvariantViolation("Newton iteration did not converge")
    return g


def newton_series_root(rp: RootProblem) -> SparsePolynomial:
    """The power-series root of P at y0, truncated to total degree m.

    Iterates y <- y - P(x_bar, y)/P'(x_bar, y) on series truncated at
    degree m+1; each step doubles the correct precision, so m.bit_length()
    steps suffice; a nonzero final residue is an InvariantViolation, a
    bug rather than a property of the input.  The series are raw terms of
    polynomials.term_algebra under rp.series_caps, wrapped once at the
    end: a product or sum that outgrows the term cap raises
    TermCapExceeded.
    """
    alg = _series_algebra(rp)
    return alg.wrap(_newton_terms(rp, alg))


# ---------------------------------------------------------------------------
# Circuit assembly


def _solve_exact(ring, matrix, rhs) -> list:
    """Exact Gauss-Jordan solve on raw coefficients; free variables are zero.

    Entries are raw values combined by the ring's add, mul and div:
    residues over F_p, ints or Fractions over Q.  Raises
    UnsolvableSystem when inconsistent.
    """
    add, mul = ring.add, ring.mul
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for rr in range(rank, len(rows)):
            if rows[rr][col]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = ring.div(1, rows[rank][col])
        pivot = [mul(v, inv) if v else 0 for v in rows[rank]]
        rows[rank] = pivot
        for rr, row in enumerate(rows):
            factor = -row[col]
            if rr == rank or not factor:
                continue
            rows[rr] = [add(a, mul(factor, b)) if b else a for a, b in zip(row, pivot)]
        pivots.append((rank, col))
        rank += 1
    for rr in range(rank, len(rows)):
        if rows[rr][ncols]:
            raise UnsolvableSystem("mixing system is inconsistent")
    solution = [0] * ncols
    for row_index, col in pivots:
        solution[col] = rows[row_index][ncols]
    return solution


def _power_products(
    alg: TermAlgebra, factors, alphas: list[tuple[int, ...]], m: int
) -> list:
    """prod_i factors[i]^alpha_i truncated to degree m, for alphas in lex order.

    For alpha with last nonzero entry j, the product is that of its
    lex-order prefix alpha - e_j (listed earlier) times factors[j].  That
    is the last multiplication of a factor-by-factor build, so the results
    equal it at one multiplication per nonzero alpha.
    """
    built: dict[tuple[int, ...], object] = {}
    for alpha in alphas:
        j = max((i for i, e in enumerate(alpha) if e), default=None)
        if j is None:
            built[alpha] = alg.one
            continue
        prefix = built[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]
        built[alpha] = alg.truncate(alg.mul(prefix, factors[j]), m)
    return list(built.values())


def _mixing_values(rp: RootProblem, alg: TermAlgebra, f) -> list:
    """The raw mixing scalars Q_alpha, one per alpha in rp.index_set().

    They solve sum_alpha Q_alpha * prod_i (C_i - C_i(0))^alpha_i = f
    (mod degree m+1) for the raw series f.  Raises TermCapExceeded when
    the dense system, one row per monomial and one column per alpha, has
    more entries than the term cap.

    The system is solved on numerators: column alpha holds those of
    g_alpha, den_alpha times its coefficients, and the right side those
    of f, den_f times its.  Scaling columns by nonzero factors keeps the
    pivots and the zero free variables, so the scaled solution is
    Q_alpha * den_f / den_alpha.
    """
    deltas = [
        alg.add(alg.lift(poly), alg.const(-c0))
        for poly, c0 in zip(rp.coefficients, rp.base_point)
    ]
    alphas = rp.index_set()
    columns = _power_products(alg, deltas, alphas, rp.m)
    f_terms, f_den = f

    keys = set(f_terms)
    for g, _ in columns:
        keys.update(g)
    entries = len(keys) * len(alphas)
    if entries > rp.caps.max_terms:
        raise TermCapExceeded(
            f"mixing system of {len(keys)} x {len(alphas)} = {entries} entries"
            f" exceeds cap {rp.caps.max_terms}"
        )
    rows = sorted(keys)
    matrix = [[g.get(k, 0) for g, _ in columns] for k in rows]
    rhs = [f_terms.get(k, 0) for k in rows]
    ring = rp.program.ring
    solution = _solve_exact(ring, matrix, rhs)
    return [ring.div(q * den, f_den) for q, (_, den) in zip(solution, columns)]


def root_circuit(
    rp: RootProblem, size_budget: int | None = None
) -> StraightLineProgram:
    """A straight-line program whose expansion is newton_series_root(rp).

    Assembly: solve for scalars Q_alpha with
    sum_alpha Q_alpha * prod_i (C_i - C_i(0))^alpha_i = f (mod degree m+1),
    then emit a program computing that combination with every C_i
    recovered from runs of P at constant y-values, wrapped in the
    degree-(<= m) slice extraction.  That extraction interpolates in z
    on max_alpha sum_i alpha_i deg(C_i) + 1 points, the max over the
    nonzero mixing terms: one more than the z-degree of the assembled
    sum at z * x_bar (at most m * deg(P), as sum_i alpha_i <= m).  On a grid of at most m + 1 points one
    point alone has a nonzero weight.  Accumulator i holds C_i - C_i(0)
    and is loaded and fed only when a mixing term with alpha_i > 0 reads
    it; one no term reads (every accumulator of a constant C_i) costs no
    step.  Per interpolation point z the program runs P's live steps
    once per y-point that feeds a read accumulator, at most r+1 times,
    and feeds each read accumulator from each such run.  The slice
    extraction is fused into the emission loop rather than wrapping the
    finished program, which is what keeps the register overhead at
    r + 3: the program uses the original registers plus one staging
    register, r+1 coefficient accumulator registers (read or not, so
    the register count does not depend on the mixing solve), and one
    global accumulator, with the per-point product and sum living in the
    recycled body registers.  For r <= 3 that is within the documented
    budget of 6.  Every step of the result is read by the output.

    The step count is compared against a budget derived from the
    emission shape (or ``size_budget`` when given); exceeding it raises
    SizeBudgetExceeded rather than returning an oversized program.  The
    Newton series, the power products and the mixing solve run on raw
    terms under rp.series_caps, and a mixing system with more entries
    than the term cap raises TermCapExceeded.
    """
    ring = rp.program.ring
    char = ring.characteristic
    if 0 < char <= max(rp.r, rp.m):
        raise CharacteristicTooSmall(
            f"characteristic {char} must exceed r = {rp.r} and m = {rp.m}"
        )
    m, r = rp.m, rp.r
    alg = _series_algebra(rp)
    mixing = _mixing_values(rp, alg, _newton_terms(rp, alg))
    alphas = rp.index_set()

    terms = [
        (ConstOperand(ring.scalar(q)), alpha) for alpha, q in zip(alphas, mixing) if q
    ]

    # Interpolation data: y-points recover the C_i from runs of P, and
    # z-points extract the degree <= m slice of the assembled sum, one
    # point more than its z-degree.
    degrees = [c.degree() for c in rp.coefficients]
    z_degree = max(
        (sum(e * d for e, d in zip(alpha, degrees)) for _, alpha in terms), default=0
    )
    y_points, y_matrix = lagrange_grid(ring, r + 1)
    z_count = z_degree + 1
    z_points, z_matrix = lagrange_grid(ring, z_count)
    slice_weights = _prefix_weights(ring, z_matrix, m)
    zero = ring.zero()

    w0 = rp.program.register_count
    stage = w0
    delta_base = w0 + 1
    global_acc = delta_base + r + 1
    prod_reg, sum_reg = 0, 1
    y = rp.program.num_variables
    # Accumulator i holds C_i - C_i(0) and is read only by the terms with
    # alpha_i > 0; one that no term reads (as when C_i is constant) is
    # neither loaded nor fed.  y-point t feeds accumulator i with weight
    # y_matrix[i][t].
    read = [i for i in range(r + 1) if any(alpha[i] for _, alpha in terms)]
    feeds = [
        [(delta_base + i, ConstOperand(y_matrix[i][t])) for i in read if y_matrix[i][t] != zero]
        for t in range(r + 1)
    ]

    sb = SlpBuilder(
        ring,
        COMMUTATIVE,
        rp.program.num_variables,
        register_count=global_acc + 1,
        name=f"{rp.program.name}_root",
    )
    emitter = _BodyEmitter(sb, rp.program, stage)
    for j, z in enumerate(z_points):
        if slice_weights[j] == zero:
            continue
        for i in read:
            sb.load(delta_base + i, ConstOperand(-rp.base_point[i]))
        for t in range(r + 1):
            if not feeds[t]:
                continue
            out = emitter.run(scale=z, leaves={y: ConstOperand(y_points[t])})
            # Every run writes the staging register before reading it, so
            # it is free between runs.
            for acc, weight in feeds[t]:
                sb.apply(stage, "mul", sb.reg(out), weight)
                sb.apply(acc, "add", sb.reg(acc), sb.reg(stage))
        sb.load(sum_reg, ConstOperand(zero))
        for q, alpha in terms:
            sb.load(prod_reg, q)
            for i, e in enumerate(alpha):
                for _ in range(e):
                    sb.apply(prod_reg, "mul", sb.reg(prod_reg), sb.reg(delta_base + i))
            sb.apply(sum_reg, "add", sb.reg(sum_reg), sb.reg(prod_reg))
        sb.apply(sum_reg, "mul", sb.reg(sum_reg), ConstOperand(slice_weights[j]))
        sb.apply(global_acc, "add", sb.reg(global_acc), sb.reg(sum_reg))

    program = sb.finish(global_acc)
    # Per z-point: r+1 runs of at most 3 steps per body step (stage the
    # left operand, stage the right one, the step) plus the cleared
    # registers, two weight steps per (coefficient, y-point),
    # r+1 accumulator loads, one product of at most m+2 steps per alpha,
    # and the sum, slice weight and global accumulation.
    per_run = 3 * rp.program.step_count + w0
    budget = size_budget
    if budget is None:
        budget = z_count * (
            (r + 1) * per_run + 2 * (r + 1) ** 2 + (r + 1) + len(alphas) * (m + 2) + 4
        )
    if program.step_count > budget:
        raise SizeBudgetExceeded(
            f"assembled {program.step_count} steps, budget {budget}"
        )
    return program
