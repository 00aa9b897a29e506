"""Sparse exact polynomials, commutative or noncommutative.

A Monomial is either a sorted exponent map (commutative) or a word of
variable indices (noncommutative).  Variable indices are 1-based
throughout, matching the x1..xn naming of the file format.

SparsePolynomial stores a map from monomials to nonzero scalars.  All
arithmetic is exact and mode-checked; products of noncommutative
polynomials concatenate words left-to-right.  Operations optionally take
ExpansionCaps and fail loudly, never truncating, when an intermediate
result would exceed them.

term_algebra() is the kernel of circuits.expand and of the root path
(rootfind): the same arithmetic on raw values, sparse terms by packed
key, with Monomial and Scalar objects built only when the result is
wrapped into a SparsePolynomial.

* A commutative key is one int: field i-1 (W bits wide) holds the
  exponent of x_i and the field above them holds the total degree, so a
  monomial product is one int addition and its degree one shift.  W is
  chosen with 2^W > 2 * max(max_degree, 1); every stored key has degree
  at most max(max_degree, 1), so adding two keys never carries.
* A noncommutative key is the word tuple: the product concatenates and
  the degree is its length.
* A value has one shape on both rings, a pair (terms, den): int
  numerators over one positive common denominator, with
  gcd(den, *numerators) = 1 after every operation.  Over F_p den is
  always 1 and the numerators are residues in [0, p).  A sum with
  equal denominators merges ints; otherwise both sides are scaled to the
  lcm.  A Fraction is built only by wrap.  Zeros are deleted.  No
  operation mutates a value, so const builds each constant object's
  value once per algebra and every read of the object shares it.

Caps are checked where SparsePolynomial.add/mul check them: the degree
of every monomial product (DegreeCapExceeded, tested once per row of a
product against the top degree of the other operand), the term count
after each row of a product and at the end of a sum (TermCapExceeded).
A lifted polynomial's degree is checked against max_degree too, since
a key of higher degree could carry when added.
Terms are merged in the same order, so the result, its term order and
the error raised on any input are those of the SparsePolynomial fold.
A product by a constant scales the other side's terms in order where
the caps cannot trip (max_degree >= 1, at most max_terms terms), which
is the same result.
One set of operations serves both rings, combining numerators with the
ring's raw add and mul.  A product multiplies numerators, takes
da * db as the denominator and reduces by one gcd over the result.
Scaling by a positive common factor changes no zero test, so zero
deletion, term order and every cap check are those of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, Iterable, Mapping

from .errors import (
    DegreeCapExceeded,
    ModeMismatch,
    ParamError,
    RingMismatch,
    TermCapExceeded,
)
from .rings import Ring, Scalar, ScalarLike

COMMUTATIVE = "commutative"
NONCOMMUTATIVE = "noncommutative"
MODES = (COMMUTATIVE, NONCOMMUTATIVE)


@dataclass(frozen=True)
class ExpansionCaps:
    """Hard limits on symbolic expansion.  Exceeding either raises."""

    max_degree: int = 64
    max_terms: int = 1 << 20


DEFAULT_CAPS = ExpansionCaps()


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ParamError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _check_num_variables(num_variables: int) -> None:
    if num_variables < 0:
        raise ParamError(f"num_variables must be >= 0, got {num_variables}")


class Monomial:
    """A single power product.

    Commutative key: tuple of (variable, exponent) pairs, variables
    ascending, exponents positive.  Noncommutative key: tuple of variable
    indices in order of multiplication.  The empty key is the unit.
    """

    __slots__ = ("mode", "key")

    def __init__(self, mode: str, key: tuple):
        object.__setattr__(self, "mode", _check_mode(mode))
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def unit(cls, mode: str) -> "Monomial":
        return cls(mode, ())

    @classmethod
    def variable(cls, mode: str, index: int) -> "Monomial":
        if index < 1:
            raise ParamError(f"variable index must be >= 1, got {index}")
        if mode == COMMUTATIVE:
            return cls(mode, ((index, 1),))
        return cls(mode, (index,))

    @classmethod
    def from_exponents(cls, exponents: Mapping[int, int]) -> "Monomial":
        items = []
        for var, exp in sorted(exponents.items()):
            if var < 1:
                raise ParamError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ParamError(f"negative exponent {exp} on x{var}")
            if exp:
                items.append((var, exp))
        return cls(COMMUTATIVE, tuple(items))

    @classmethod
    def word(cls, indices: Iterable[int]) -> "Monomial":
        w = tuple(indices)
        if any(i < 1 for i in w):
            raise ParamError("variable indices must be >= 1")
        return cls(NONCOMMUTATIVE, w)

    @property
    def degree(self) -> int:
        if self.mode == COMMUTATIVE:
            return sum(e for _, e in self.key)
        return len(self.key)

    def variables(self) -> frozenset[int]:
        if self.mode == COMMUTATIVE:
            return frozenset(v for v, _ in self.key)
        return frozenset(self.key)

    def max_variable(self) -> int:
        vs = self.variables()
        return max(vs) if vs else 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if other.mode != self.mode:
            raise ModeMismatch("cannot multiply monomials of different modes")
        if self.mode == NONCOMMUTATIVE:
            return Monomial(self.mode, self.key + other.key)
        merged = dict(self.key)
        for var, exp in other.key:
            merged[var] = merged.get(var, 0) + exp
        return Monomial.from_exponents(merged)

    def sort_key(self) -> tuple:
        return (self.degree, self.key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Monomial)
            and other.mode == self.mode
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.key))

    def text(self) -> str:
        if not self.key:
            return "1"
        if self.mode == COMMUTATIVE:
            parts = [f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self.key]
        else:
            parts = [f"x{v}" for v in self.key]
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.mode!r}, {self.text()})"


def _cap_degree(mono: Monomial, caps: ExpansionCaps | None) -> Monomial:
    if caps is not None and mono.degree > caps.max_degree:
        raise DegreeCapExceeded(
            f"monomial degree {mono.degree} exceeds cap {caps.max_degree}"
        )
    return mono


class SparsePolynomial:
    """A finite map monomial -> nonzero scalar over a fixed ring and mode."""

    __slots__ = ("ring", "mode", "num_variables", "terms")

    def __init__(
        self,
        ring: Ring,
        mode: str,
        num_variables: int,
        terms: Mapping[Monomial, ScalarLike] | None = None,
    ):
        _check_mode(mode)
        _check_num_variables(num_variables)
        clean: dict[Monomial, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            if mono.mode != mode:
                raise ModeMismatch(
                    f"{mono!r} in a {mode} polynomial"
                )
            if mono.max_variable() > num_variables:
                raise ParamError(
                    f"{mono.text()} uses a variable beyond x{num_variables}"
                )
            c = ring.scalar(coeff)
            if not c.is_zero:
                clean[mono] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    @classmethod
    def zero(cls, ring: Ring, mode: str, num_variables: int) -> "SparsePolynomial":
        return cls(ring, mode, num_variables)

    @classmethod
    def constant(
        cls, ring: Ring, mode: str, num_variables: int, value: ScalarLike
    ) -> "SparsePolynomial":
        return cls(ring, mode, num_variables, {Monomial.unit(mode): value})

    @classmethod
    def variable(
        cls, ring: Ring, mode: str, num_variables: int, index: int
    ) -> "SparsePolynomial":
        if not 1 <= index <= num_variables:
            raise ParamError(f"variable x{index} outside 1..{num_variables}")
        return cls(ring, mode, num_variables, {Monomial.variable(mode, index): 1})

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if other.ring != self.ring:
            raise RingMismatch("polynomials over different rings")
        if other.mode != self.mode:
            raise ModeMismatch("polynomials of different modes")
        if other.num_variables != self.num_variables:
            raise ParamError(
                f"variable counts differ: {self.num_variables} vs {other.num_variables}"
            )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(mono, self.ring.zero())

    def monomials(self) -> list[Monomial]:
        return sorted(self.terms, key=Monomial.sort_key)

    def add(
        self, other: "SparsePolynomial", caps: ExpansionCaps | None = None
    ) -> "SparsePolynomial":
        self._check_compatible(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = merged.get(mono)
            total = coeff if acc is None else acc + coeff
            if total.is_zero:
                merged.pop(mono, None)
            else:
                merged[mono] = total
        if caps is not None and len(merged) > caps.max_terms:
            raise TermCapExceeded(
                f"{len(merged)} terms exceeds cap {caps.max_terms}"
            )
        return SparsePolynomial(self.ring, self.mode, self.num_variables, merged)

    def neg(self) -> "SparsePolynomial":
        return SparsePolynomial(
            self.ring,
            self.mode,
            self.num_variables,
            {m: -c for m, c in self.terms.items()},
        )

    def sub(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self.add(other.neg())

    def scale(self, factor: ScalarLike) -> "SparsePolynomial":
        f = self.ring.scalar(factor)
        return SparsePolynomial(
            self.ring,
            self.mode,
            self.num_variables,
            {m: c * f for m, c in self.terms.items()},
        )

    def mul(
        self, other: "SparsePolynomial", caps: ExpansionCaps | None = None
    ) -> "SparsePolynomial":
        self._check_compatible(other)
        acc: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _cap_degree(m1 * m2, caps)
                coeff = c1 * c2
                prev = acc.get(mono)
                total = coeff if prev is None else prev + coeff
                if total.is_zero:
                    acc.pop(mono, None)
                else:
                    acc[mono] = total
            if caps is not None and len(acc) > caps.max_terms:
                raise TermCapExceeded(
                    f"{len(acc)} terms exceeds cap {caps.max_terms}"
                )
        return SparsePolynomial(self.ring, self.mode, self.num_variables, acc)

    def truncate(self, max_degree: int) -> "SparsePolynomial":
        """Drop every term of degree above max_degree."""
        return SparsePolynomial(
            self.ring,
            self.mode,
            self.num_variables,
            {m: c for m, c in self.terms.items() if m.degree <= max_degree},
        )

    def coefficients_in(self, var: int) -> dict[int, "SparsePolynomial"]:
        """Split a commutative polynomial by the exponent of one variable.

        Returns {e: P_e} with self = sum_e P_e * var**e; each P_e keeps the
        same variable count but never mentions var.
        """
        if self.mode != COMMUTATIVE:
            raise ModeMismatch("coefficient split needs a commutative polynomial")
        buckets: dict[int, dict[Monomial, Scalar]] = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono.key)
            e = exps.pop(var, 0)
            rest = Monomial.from_exponents(exps)
            buckets.setdefault(e, {})[rest] = coeff
        return {
            e: SparsePolynomial(self.ring, self.mode, self.num_variables, t)
            for e, t in buckets.items()
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return (
            other.ring == self.ring
            and other.mode == self.mode
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.mode, frozenset(self.terms.items())))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in self.monomials():
            coeff = self.terms[mono]
            if not mono.key:
                parts.append(coeff.text())
            elif coeff == self.ring.one():
                parts.append(mono.text())
            else:
                parts.append(f"{coeff.text()}*{mono.text()}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        body = self.text()
        if len(body) > 120:
            body = f"{self.term_count} terms, degree {self.degree()}"
        return f"SparsePolynomial({self.mode!r}, {body})"


# ---------------------------------------------------------------------------
# Raw-term algebra: the expansion kernel


@dataclass(frozen=True)
class TermAlgebra:
    """Sparse polynomial arithmetic on raw values; see term_algebra.

    var, const, add and mul are a fold() algebra; wrap turns a value into
    a SparsePolynomial and lift turns one back.  A value is (terms, den):
    a dict key -> nonzero int and a positive int, the polynomial
    terms / den, with den 1 over F_p.  scale multiplies by a raw
    coefficient (an int, or over Q also a Fraction), truncate drops the
    terms above a degree, zero and one are the constant values, and unit
    is the key of the constant monomial.  Values compare equal exactly
    when their polynomials do.
    """

    var: Callable[[int], object]
    const: Callable[[Scalar], object]
    add: Callable[[object, object], object]
    mul: Callable[[object, object], object]
    wrap: Callable[[object], "SparsePolynomial"]
    lift: Callable[["SparsePolynomial"], object]
    scale: Callable[[object, object], object]
    truncate: Callable[[object, int], object]
    zero: object
    one: object
    unit: object


def term_algebra(
    ring: Ring, mode: str, num_variables: int, caps: ExpansionCaps
) -> TermAlgebra:
    """Sparse polynomial arithmetic on raw values, under hard caps.

    A value is a pair (terms, den) on every ring: a dict key -> nonzero
    int numerator and one positive common denominator with
    gcd(den, *numerators) = 1 (den is 1 over F_p), so every value has
    one form and a Fraction is built only by wrap.  The operations never
    mutate a value, so one value may feed many gates.
    Commutative keys are packed ints (see the module docstring), words
    are tuples; products add keys.  Results, their term order and the
    errors raised match SparsePolynomial.add/mul with the same caps.
    """
    _check_mode(mode)
    n = num_variables
    max_degree, max_terms = caps.max_degree, caps.max_terms
    if mode == COMMUTATIVE:
        # Stored keys have degree <= max(max_degree, 1): leaves have degree
        # <= 1 and every product is checked.  A field of this width holds
        # twice that, so the sum of two stored keys never carries.
        width = (2 * max(max_degree, 1)).bit_length()
        shift = width * n
        field = (1 << width) - 1
        unit = 0

        def var_key(index: int) -> int:
            return (1 << width * (index - 1)) + (1 << shift)

        def degree(key: int) -> int:
            return key >> shift

        def top_degree(terms: dict) -> int:
            return max(terms) >> shift

        def decode(key: int) -> tuple:
            items = []
            key &= (1 << shift) - 1
            var = 1
            while key:
                exp = key & field
                if exp:
                    items.append((var, exp))
                key >>= width
                var += 1
            return tuple(items)

        def encode(mono: Monomial) -> int:
            key = mono.degree << shift
            for var, exp in mono.key:
                key += exp << width * (var - 1)
            return key

        def clip(terms: dict, limit: int) -> dict:
            # The degree is the top field: degree <= limit is a key bound.
            bound = (limit + 1) << shift
            return {k: c for k, c in terms.items() if k < bound}

    else:
        unit = ()
        degree = len

        def var_key(index: int) -> tuple:
            return (index,)

        def top_degree(terms: dict) -> int:
            return max(map(len, terms))

        def decode(key: tuple) -> tuple:
            return key

        def encode(mono: Monomial) -> tuple:
            return mono.key

        def clip(terms: dict, limit: int) -> dict:
            return {k: c for k, c in terms.items() if len(k) <= limit}

    def degree_cap(d: int) -> DegreeCapExceeded:
        return DegreeCapExceeded(f"monomial degree {d} exceeds cap {max_degree}")

    def term_cap(count: int) -> TermCapExceeded:
        return TermCapExceeded(f"{count} terms exceeds cap {max_terms}")

    cadd, cmul = ring.add, ring.mul

    def merge(a: dict, b: dict) -> dict:
        # SparsePolynomial.add: b's terms merged into a copy of a.
        if a and b:
            merged = a.copy()
            get = merged.get
            for k, c in b.items():
                prev = get(k)
                if prev is not None:
                    c = cadd(prev, c)
                    if not c:
                        del merged[k]
                        continue
                merged[k] = c
        else:
            merged = a or b
        if len(merged) > max_terms:
            raise term_cap(len(merged))
        return merged

    def product(a: dict, b: dict) -> dict:
        # SparsePolynomial.mul row by row.  The degree of k1 + k2 is
        # degree(k1) + degree(k2), so a row holds a product past the cap
        # exactly when degree(k1) + top_degree(b) does; mul would raise
        # there before the row's term count, so the row raises at once.
        # An empty b gives no products, so no degree to check.
        acc: dict = {}
        get = acc.get
        right = tuple(b.items())
        room = max_degree - top_degree(b) if b else inf
        for k1, c1 in a.items():
            if degree(k1) > room:
                d1 = degree(k1)
                raise degree_cap(
                    next(d1 + d for d in map(degree, b) if d1 + d > max_degree)
                )
            for k2, c2 in right:
                k = k1 + k2
                prev = get(k)
                c = cmul(c1, c2)
                if prev is not None:
                    c = cadd(prev, c)
                    if not c:
                        del acc[k]
                        continue
                acc[k] = c
            if len(acc) > max_terms:
                raise term_cap(len(acc))
        return acc

    zero = ({}, 1)
    one = ({unit: 1}, 1)
    # Key i is about width * i bits wide, so each variable's value is built
    # at its first read, not for all n up front.
    leaves: dict = {}

    def reduced(terms: dict, den: int) -> tuple:
        if not terms:
            return zero
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        return terms, den

    # const is pure and values are never mutated, so each constant
    # object's value is built once per algebra and shared by every read
    # of it.  The memo holds the object, so its id is not reused; an id
    # is a C-level hash, where a Fraction's is a modular inverse.
    consts: dict = {}

    def const(c: Scalar) -> tuple:
        hit = consts.get(id(c))
        if hit is None:
            v = ring.scalar(c).value
            hit = consts[id(c)] = c, (({unit: v.numerator}, v.denominator) if v else zero)
        return hit[1]

    def add(a: tuple, b: tuple) -> tuple:
        ta, da = a
        tb, db = b
        if da == db or not (ta and tb):
            den = da if ta else db
        else:
            den = lcm(da, db)
            if den != da:
                ta = {k: c * (den // da) for k, c in ta.items()}
            if den != db:
                tb = {k: c * (den // db) for k, c in tb.items()}
        return reduced(merge(ta, tb), den)

    # A product by a constant (one term, at unit) is the other side's
    # terms scaled in order, nonzero in a field: product's result when
    # product raises nothing.  With max_degree >= 1 every stored key is
    # within the degree cap, so only a side of more than max_terms terms
    # raises; that and max_degree 0 (a leaf times a constant) go to product.
    scales = max_degree >= 1

    def mul(a: tuple, b: tuple) -> tuple:
        (ta, da), (tb, db) = a, b
        if scales:
            if len(tb) == 1 and unit in tb and len(ta) <= max_terms:
                c = tb[unit]
                return reduced({k: cmul(c1, c) for k, c1 in ta.items()}, da * db)
            if len(ta) == 1 and unit in ta and len(tb) <= max_terms:
                c = ta[unit]
                return reduced({k: cmul(c, c2) for k, c2 in tb.items()}, da * db)
        return reduced(product(ta, tb), da * db)

    def wrap(value: tuple) -> SparsePolynomial:
        terms, den = value
        if den != 1:
            terms = {k: Fraction(c, den) for k, c in terms.items()}
        return SparsePolynomial(
            ring, mode, n, {Monomial(mode, decode(k)): c for k, c in terms.items()}
        )

    def lift(poly: SparsePolynomial) -> tuple:
        if poly.ring != ring or poly.mode != mode or poly.num_variables != n:
            raise ParamError(f"cannot lift {poly!r} into this algebra")
        top = poly.degree()
        if top > max_degree:
            raise degree_cap(top)
        den = lcm(*(c.value.denominator for c in poly.terms.values()))
        return {
            encode(mono): c.value.numerator * (den // c.value.denominator)
            for mono, c in poly.terms.items()
        }, den

    def scale(value: tuple, factor) -> tuple:
        # factor is an int, or over Q also a Fraction.  cmul(num, 1) is
        # num in canonical form, zero exactly when every product is.
        num = factor.numerator
        if not cmul(num, 1):
            return zero
        terms, den = value
        return reduced({k: cmul(c, num) for k, c in terms.items()}, den * factor.denominator)

    def truncate(value: tuple, limit: int) -> tuple:
        terms, den = value
        kept = clip(terms, limit)
        return value if len(kept) == len(terms) else reduced(kept, den)

    def var(index: int):
        if index not in leaves:
            if not 1 <= index <= n:
                raise ParamError(f"variable x{index} outside 1..{n}")
            leaves[index] = ({var_key(index): 1}, 1)
        return leaves[index]

    return TermAlgebra(var, const, add, mul, wrap, lift, scale, truncate, zero, one, unit)
