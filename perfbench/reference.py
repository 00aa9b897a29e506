"""Independent reference semantics used to check library outputs.

Nothing here calls the library's evaluators, expanders or testers.  It
reads the IR data classes directly and computes over plain ``int`` (mod
p when a prime is given), ``Fraction`` values or, for noncommutative
point evaluation, 2x2 integer matrices mod a prime, and it re-derives the
point orders the identity testers promise (trial order for
Schwartz-Zippel, lexicographic grid order for the design-based tester)
from their documented definitions.

Polynomials are dicts from a monomial key to a nonzero coefficient.  A
commutative key is a tuple of ascending (variable, exponent) pairs; a
noncommutative key is the word as a tuple of variable indices.  Both
match the documented ``Monomial.key`` forms, so library results convert
with ``from_library``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from slpforge.circuits import (
    ConstLeaf,
    LayeredCircuit,
    LoadStep,
    RegOperand,
    VarLeaf,
    VarOperand,
)
from slpforge.formulas import FConst, FVar

ADD = "add"


# ---------------------------------------------------------------------------
# Point evaluation


# Noncommutative objects are evaluated at 2x2 matrices mod a prime, where
# multiplication does not commute, so a swapped operand shows.  Over the
# rationals the values are reduced mod this prime.
MATRIX_PRIME = (1 << 61) - 1


def matrix_modulus(ring) -> int:
    return ring.characteristic or MATRIX_PRIME


def _mod(value, p: int) -> int:
    if isinstance(value, Fraction):
        return value.numerator * pow(value.denominator, -1, p) % p
    return value % p


def _matrix_ops(p: int):
    def const(v):
        v = _mod(v, p)
        return (v, 0, 0, v)

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % p,
            (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p,
            (a[2] * b[1] + a[3] * b[3]) % p,
        )

    return const, add, mul


def _int_ops(p: int | None):
    def add(a, b):
        return (a + b) % p if p else a + b

    def mul(a, b):
        return a * b % p if p else a * b

    return (lambda v: v), add, mul


def evaluate(obj, point, p: int | None = None):
    """Value of a layered circuit or program at ``point`` (mod p if given).

    For a commutative object the point holds numbers.  For a
    noncommutative one it holds 2x2 matrices as (a, b, c, d) tuples, p is
    required, and a constant c stands for c times the identity.
    """
    if obj.mode == "commutative":
        const, add, mul = _int_ops(p)
    else:
        const, add, mul = _matrix_ops(p)
    if isinstance(obj, LayeredCircuit):
        values = {}
        for layer in obj.layers:
            for gid in layer:
                g = obj.gates[gid]
                if isinstance(g, VarLeaf):
                    v = point[g.index - 1]
                elif isinstance(g, ConstLeaf):
                    v = const(g.value.value)
                else:
                    a, b = values[g.left], values[g.right]
                    v = add(a, b) if g.op == ADD else mul(a, b)
                values[gid] = v
        return values[obj.output_id]

    regs = [const(0)] * obj.register_count

    def val(op):
        if isinstance(op, RegOperand):
            return regs[op.register]
        if isinstance(op, VarOperand):
            return point[op.index - 1]
        return const(op.value.value)

    for step in obj.steps:
        if isinstance(step, LoadStep):
            regs[step.dest] = val(step.source)
        else:
            a, b = val(step.left), val(step.right)
            regs[step.dest] = add(a, b) if step.op == ADD else mul(a, b)
    return regs[obj.output_register]


def formula_value(node, point, p: int) -> int:
    """Value of a formula node at ``point``, mod p."""
    if isinstance(node, FVar):
        return point[node.index - 1] % p
    if isinstance(node, FConst):
        return node.value.value % p
    values = [formula_value(child, point, p) for child in node.children]
    acc = values[0]
    for v in values[1:]:
        acc = (acc + v) % p if node.op == ADD else acc * v % p
    return acc


def formula_degree(node) -> int:
    """Syntactic degree of a formula node, by the same rule as circuits."""
    if isinstance(node, FVar):
        return 1
    if isinstance(node, FConst):
        return 0
    degrees = [formula_degree(child) for child in node.children]
    return max(degrees) if node.op == ADD else sum(degrees)


def syntactic_degree(obj) -> int:
    """Leaves 1 (variable) or 0 (constant), add takes max, mul takes sum."""
    if isinstance(obj, LayeredCircuit):
        deg = {}
        for layer in obj.layers:
            for gid in layer:
                g = obj.gates[gid]
                if isinstance(g, VarLeaf):
                    deg[gid] = 1
                elif isinstance(g, ConstLeaf):
                    deg[gid] = 0
                else:
                    a, b = deg[g.left], deg[g.right]
                    deg[gid] = max(a, b) if g.op == ADD else a + b
        return deg[obj.output_id]
    regs = [0] * obj.register_count

    def d(op):
        if isinstance(op, RegOperand):
            return regs[op.register]
        return 1 if isinstance(op, VarOperand) else 0

    for step in obj.steps:
        if isinstance(step, LoadStep):
            regs[step.dest] = d(step.source)
        else:
            a, b = d(step.left), d(step.right)
            regs[step.dest] = max(a, b) if step.op == ADD else a + b
    return regs[obj.output_register]


# ---------------------------------------------------------------------------
# Sparse expansion


def _merge(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        total = out.get(key, 0) + c
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def poly_mul(a: dict, b: dict, commutative: bool) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = _merge(ka, kb) if commutative else ka + kb
            total = out.get(key, 0) + ca * cb
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def _var(index: int, commutative: bool) -> dict:
    return {((index, 1),) if commutative else (index,): 1}


def _const(value) -> dict:
    return {(): value} if value else {}


def expand(obj) -> dict:
    """Exact expansion of a circuit or program over the rationals."""
    commutative = obj.mode == "commutative"
    if isinstance(obj, LayeredCircuit):
        polys = {}
        for layer in obj.layers:
            for gid in layer:
                g = obj.gates[gid]
                if isinstance(g, VarLeaf):
                    polys[gid] = _var(g.index, commutative)
                elif isinstance(g, ConstLeaf):
                    polys[gid] = _const(g.value.value)
                elif g.op == ADD:
                    polys[gid] = poly_add(polys[g.left], polys[g.right])
                else:
                    polys[gid] = poly_mul(polys[g.left], polys[g.right], commutative)
        return polys[obj.output_id]

    regs = [{} for _ in range(obj.register_count)]

    def poly(op):
        if isinstance(op, RegOperand):
            return regs[op.register]
        if isinstance(op, VarOperand):
            return _var(op.index, commutative)
        return _const(op.value.value)

    for step in obj.steps:
        if isinstance(step, LoadStep):
            regs[step.dest] = poly(step.source)
        elif step.op == ADD:
            regs[step.dest] = poly_add(poly(step.left), poly(step.right))
        else:
            regs[step.dest] = poly_mul(poly(step.left), poly(step.right), commutative)
    return regs[obj.output_register]


def from_library(poly) -> dict:
    """A library SparsePolynomial as a reference dict."""
    return {mono.key: coeff.value for mono, coeff in poly.terms.items()}


def degree(key: tuple, commutative: bool = True) -> int:
    return sum(e for _, e in key) if commutative else len(key)


def derivative(poly: dict, var: int, order: int) -> dict:
    """order-th formal derivative in one variable, commutative keys."""
    if order == 0:
        return dict(poly)
    out: dict = {}
    for key, c in poly.items():
        exps = dict(key)
        e = exps.get(var, 0)
        if e < order:
            continue
        factor = 1
        for t in range(order):
            factor *= e - t
        if e == order:
            exps.pop(var)
        else:
            exps[var] = e - order
        new_key = tuple(sorted(exps.items()))
        total = out.get(new_key, 0) + c * factor
        if total:
            out[new_key] = total
        else:
            out.pop(new_key, None)
    return out


def balanced_words(n: int) -> dict:
    """Every word over {1, 2} with n of each letter, coefficient 1."""
    out = {}
    for ones in itertools.combinations(range(2 * n), n):
        word = [2] * (2 * n)
        for i in ones:
            word[i] = 1
        out[tuple(word)] = 1
    return out


def series_root(coefficients: list[dict], y0, m: int) -> dict:
    """Power-series root f of sum_i C_i(x) y^i with f(0) = y0, to degree m.

    Solved degree by degree: with f = y0 + g and P(x, y0 + g) expanded
    around g, the degree-d part of g is fixed by the degree-d part of
    the residue divided by dP/dy(0, y0).  Independent of the library's
    Newton iteration and of its interpolation-based circuit assembly.
    """

    def truncate(p: dict) -> dict:
        return {k: c for k, c in p.items() if degree(k) <= m}

    def at(series: dict) -> dict:
        acc: dict = {}
        for c in reversed(coefficients):
            acc = truncate(poly_add(poly_mul(acc, series, True), c))
        return acc

    slope = sum(
        i * c.get((), 0) * Fraction(y0) ** (i - 1)
        for i, c in enumerate(coefficients)
        if i
    )
    f = {(): Fraction(y0)}
    for d in range(1, m + 1):
        residue = at(f)
        for key, c in residue.items():
            if degree(key) == d:
                f[key] = f.get(key, 0) - Fraction(c) / slope
        f = {k: c for k, c in f.items() if c}
    return f


# ---------------------------------------------------------------------------
# Identity-tester point orders


def sz_points(num_variables: int, trials: int, seed: int, sample_size: int):
    """Trial points of the randomized tester, in trial order.

    Point i of the sample set is the integer i; each trial draws one
    index per variable from a Philox stream keyed by the seed.
    """
    gen = np.random.Generator(np.random.Philox(seed))
    for _ in range(trials):
        yield [int(i) for i in gen.integers(0, sample_size, size=num_variables)]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def design_sets(n: int, m: int) -> tuple[int, list[list[int]]]:
    """Universe side q and the n sorted design sets {a*q + f_i(a)}."""
    q = next(p for p in range(max(m, 2), 2 * m + 1) if _is_prime(p))
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
        sets.append(sorted(members))
    return q, sets


def desk_rule(subset_mask: int) -> int:
    mixed = (subset_mask * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    mixed ^= mixed >> 29
    return 1 + (bin(mixed).count("1") & 1)


def hard_value(m: int, values: list[int], p: int) -> int:
    """The desk-rule multilinear family at one point, mod p."""
    total = 0
    for mask in range(1 << m):
        term = desk_rule(mask)
        for t in range(m):
            if mask >> t & 1:
                term = term * values[t] % p
        total += term
    return total % p


def nw_points(num_variables: int, m: int, sample_size: int, p: int):
    """(grid point, composed assignment) pairs in the grid tester's order."""
    q, sets = design_sets(num_variables, m)
    cache: dict = {}
    for grid in itertools.product(range(sample_size), repeat=q * q):
        assignment = []
        for members in sets:
            key = tuple(grid[u] for u in members)
            if key not in cache:
                cache[key] = hard_value(m, list(key), p)
            assignment.append(cache[key])
        yield grid, assignment


def first_nonzero(value_at, points):
    """First (label, point) whose value is nonzero, or None."""
    for label, point in points:
        if value_at(point):
            return label
    return None


# ---------------------------------------------------------------------------
# Laplace identities of a permanent candidate


def laplace_identity(candidate, n: int, k: int, x: list[int], p: int) -> int:
    """B_k(x) = C_k(x) - sum_i x_{1i} C_{k-1}(minor_i(x)), C_0 = 1.

    C_j is the candidate with every entry outside the top-left j x j
    corner fixed to the identity matrix; minor_i feeds the corner the
    k-1 x k-1 minor of x that drops row 1 and column i.
    """

    def idx(row: int, col: int) -> int:
        return (row - 1) * n + col - 1

    def corner(j: int, entry) -> int:
        z = [0] * (n * n)
        for row in range(1, n + 1):
            for col in range(1, n + 1):
                if row <= j and col <= j:
                    z[idx(row, col)] = entry(row, col)
                else:
                    z[idx(row, col)] = 1 if row == col else 0
        return evaluate(candidate, z, p) if j else 1

    total = corner(k, lambda row, col: x[idx(row, col)])
    for i in range(1, k + 1):
        minor = corner(
            k - 1, lambda a, b: x[idx(a + 1, b if b < i else b + 1)]
        )
        total -= x[idx(1, i)] * minor
    return total % p
