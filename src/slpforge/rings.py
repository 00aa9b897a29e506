"""Exact coefficient arithmetic: prime fields and the rationals.

Scalars are immutable value objects tagged with their ring.  Prime-field
values are canonical integers in [0, p); rational values are
fractions.Fraction.  Every operation is exact and nothing in this module
(or anywhere downstream of it) touches floating point.

The module also provides exact univariate interpolation on the canonical
grid 0..k-1: the Lagrange basis polynomials come from a master polynomial
and synthetic division in integers, O(k^2) operations and no Gaussian
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from .errors import FieldTooSmall, ParamError, RingMismatch

ScalarLike = Union["Scalar", int, Fraction]

# Witness set making Miller-Rabin deterministic for all n < 3.3e24,
# far above any modulus this package is used with.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_PRIME = (1 << 61) - 1


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the supported modulus range."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Abstract coefficient ring.  Instances compare by mathematical identity."""

    name: str = "ring"

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int | None:
        """Number of elements, or None when infinite."""
        raise NotImplementedError

    def scalar(self, value: ScalarLike) -> "Scalar":
        raise NotImplementedError

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse(self, text: str) -> "Scalar":
        """Parse a decimal or num/den literal."""
        try:
            return self.scalar(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParamError(f"bad scalar literal {text!r}") from exc

    def descriptor(self) -> str:
        """Token form used in circuit files."""
        raise NotImplementedError

    def sample_points(self, count: int) -> list["Scalar"]:
        """Images of 0..count-1, the canonical interpolation grid."""
        if self.size is not None and count > self.size:
            raise FieldTooSmall(
                f"need {count} distinct points but {self!r} has {self.size} elements"
            )
        return [self.scalar(i) for i in range(count)]


class PrimeField(Ring):
    """The field F_p for a prime modulus p."""

    __slots__ = ("p",)
    name = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ParamError(f"modulus must be an integer >= 2, got {p!r}")
        if not is_probable_prime(p):
            raise ParamError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def size(self) -> int:
        return self.p

    def scalar(self, value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatch(f"scalar from {value.ring!r} used in {self!r}")
            return value
        if isinstance(value, int):
            return Scalar(self, value % self.p)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return Scalar(self, value.numerator * pow(den, self.p - 2, self.p) % self.p)
        raise ParamError(f"cannot make a {self!r} scalar from {value!r}")

    def descriptor(self) -> str:
        return f"prime {self.p}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("prime", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField(Ring):
    """The rationals, backed by fractions.Fraction."""

    __slots__ = ()
    name = "rational"

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def size(self) -> None:
        return None

    def scalar(self, value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatch(f"scalar from {value.ring!r} used in {self!r}")
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(self, Fraction(value))
        raise ParamError(f"cannot make a rational scalar from {value!r}")

    def descriptor(self) -> str:
        return "rational"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("rational")

    def __repr__(self) -> str:
        return "RationalField()"


RATIONALS = RationalField()


def ring_from_descriptor(tokens: Sequence[str]) -> Ring:
    """Inverse of Ring.descriptor, e.g. ["prime", "7"] or ["rational"]."""
    if len(tokens) == 1 and tokens[0] == "rational":
        return RATIONALS
    if len(tokens) == 2 and tokens[0] == "prime":
        try:
            return PrimeField(int(tokens[1]))
        except ValueError as exc:
            raise ParamError(f"bad modulus {tokens[1]!r}") from exc
    raise ParamError(f"unknown ring descriptor {' '.join(tokens)!r}")


class Scalar:
    """An immutable ring element."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other: ScalarLike) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(
                    f"cannot combine {self.ring!r} with {other.ring!r}"
                )
            return other
        return self.ring.scalar(other)

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other: ScalarLike) -> "Scalar":
        other = self._coerce(other)
        if isinstance(self.ring, PrimeField):
            return Scalar(self.ring, (self.value + other.value) % self.ring.p)
        return Scalar(self.ring, self.value + other.value)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        if isinstance(self.ring, PrimeField):
            return Scalar(self.ring, -self.value % self.ring.p)
        return Scalar(self.ring, -self.value)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = self._coerce(other)
        if isinstance(self.ring, PrimeField):
            return Scalar(self.ring, self.value * other.value % self.ring.p)
        return Scalar(self.ring, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if isinstance(self.ring, PrimeField):
            return Scalar(self.ring, pow(self.value, self.ring.p - 2, self.ring.p))
        return Scalar(self.ring, 1 / self.value)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise ParamError("scalar exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if isinstance(self.ring, PrimeField):
            return Scalar(self.ring, pow(self.value, exponent, self.ring.p))
        return Scalar(self.ring, self.value**exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return other.ring == self.ring and other.value == self.value
        if isinstance(other, (int, Fraction)):
            return self == self.ring.scalar(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, self.value))

    def text(self) -> str:
        """Serialized literal: decimal, or num/den for non-integer rationals."""
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.ring!r}, {self.value})"


def poly_eval(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    """Evaluate a low-order-first coefficient list by Horner's rule."""
    acc = x.ring.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def lagrange_grid(ring: Ring, count: int) -> tuple[list[Scalar], list[list[Scalar]]]:
    """The grid ring.sample_points(count) and its Lagrange matrix A, with
    A[i][j] the coefficient of z**i in the j-th Lagrange basis polynomial.

    The master polynomial z(z-1)...(z-count+1) and its synthetic division
    by each z - j run on exact ints; column j is the quotient times one
    inverse of D_j = prod_{i != j} (j - i) = (-1)^(count-1-j) j! (count-1-j)!.
    Every factor of D_j is below count in absolute value, so it is a unit
    whenever the grid fits in the ring (FieldTooSmall otherwise).
    """
    if count < 1:
        raise ParamError("need at least one interpolation point")
    points = ring.sample_points(count)
    master = [1]  # low-order first; times (z - x) per grid point x
    for x in range(count):
        master = [a - x * b for a, b in zip([0] + master, master + [0])]
    columns = []
    for j in range(count):
        quotient = [0] * count
        carry = master[count]
        for i in range(count - 1, -1, -1):
            quotient[i] = carry
            carry = master[i] + carry * j
        sign = -1 if (count - 1 - j) % 2 else 1
        inv = ring.scalar(Fraction(sign, factorial(j) * factorial(count - 1 - j)))
        columns.append([ring.scalar(q) * inv for q in quotient])
    return points, [list(row) for row in zip(*columns)]
