"""Scalar arithmetic and exact interpolation."""

import random
from fractions import Fraction

import pytest

from genutil import DuplicatePoint, reference_lagrange_matrix, vandermonde_solve
from slpforge import rings
from slpforge.errors import FieldTooSmall, ParamError, RingMismatch
from slpforge.rings import (
    DEFAULT_PRIME,
    PrimeField,
    RATIONALS,
    Scalar,
    is_probable_prime,
    _lagrange_raw,
    lagrange_grid,
    poly_eval,
    ring_from_descriptor,
)


def test_primality_known_values():
    assert is_probable_prime(2)
    assert is_probable_prime(97)
    assert is_probable_prime(DEFAULT_PRIME)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(3215031751)  # strong pseudoprime to small bases
    assert not is_probable_prime(DEFAULT_PRIME - 1)


KNOWN_PRIMALITY = {
    2: True, 97: True, DEFAULT_PRIME: True, 1: False, 561: False, 3215031751: False,
    DEFAULT_PRIME - 1: False,
}


def test_primality_answers_do_not_depend_on_what_was_proven(monkeypatch):
    monkeypatch.setattr(rings, "_PROVEN_PRIMES", set())
    cold = {n: is_probable_prime(n) for n in KNOWN_PRIMALITY}
    warm = {n: is_probable_prime(n) for n in reversed(KNOWN_PRIMALITY)}
    assert cold == warm == KNOWN_PRIMALITY


def test_a_modulus_is_proven_prime_once(monkeypatch):
    monkeypatch.setattr(rings, "_PROVEN_PRIMES", set())
    rounds = []

    def counting_pow(*args):
        rounds.append(args)
        return pow(*args)

    monkeypatch.setattr(rings, "pow", counting_pow, raising=False)
    PrimeField(DEFAULT_PRIME)
    assert rounds
    rounds.clear()
    assert PrimeField(DEFAULT_PRIME).p == DEFAULT_PRIME
    assert rounds == []
    # A composite is tested, and refused, on every construction, also
    # after other primes were proven.  561 fails trial division by 3;
    # 3215031751 passes it and fails the Miller-Rabin rounds.
    for composite, tested in ((561, False), (3215031751, True)):
        for prime in (101, 2**31 - 1, 1_000_003):
            PrimeField(prime)
            rounds.clear()
            with pytest.raises(ParamError):
                PrimeField(composite)
            assert bool(rounds) is tested
            assert not is_probable_prime(composite)


def test_prime_field_rejects_composites():
    with pytest.raises(ParamError):
        PrimeField(6)
    with pytest.raises(ParamError):
        PrimeField(1)
    assert PrimeField(7).characteristic == 7


def _raw_operands(rng, ring):
    """Raw values of any sign and size: over F_p also >= p, over Q also Fractions."""
    p = ring.characteristic
    if p:
        return [rng.randrange(-3 * p, 3 * p) for _ in range(3)] + [0, p, -p, p - 1, 2 * p + 1]
    return [rng.randrange(-10**20, 10**20) for _ in range(2)] + [
        Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000)) for _ in range(3)
    ] + [0, -1, Fraction(-7, 3)]


def test_field_axioms_randomized():
    rng = random.Random(20240801)
    for f in (PrimeField(101), PrimeField(2**31 - 1), PrimeField(DEFAULT_PRIME), RATIONALS):
        p = f.characteristic
        size = p or 10**6
        for _ in range(200):
            a = f.scalar(rng.randrange(-size, size))
            b = f.scalar(rng.randrange(-size, size))
            c = f.scalar(Fraction(rng.randrange(-size, size), rng.randrange(1, 50)))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * f.one() == a
            assert a + f.zero() == a
            assert a - a == f.zero() and -(-a) == a
            if not a.is_zero:
                assert a * a.inverse() == f.one()
                assert b / a * a == b
        # The raw ops against int and Fraction arithmetic, on operands of
        # any sign and size; results are canonical (in [0, p) over F_p).
        for _ in range(50):
            operands = _raw_operands(rng, f)
            for x in operands:
                for y in operands:
                    total, product = f.add(x, y), f.mul(x, y)
                    if p:
                        assert type(total) is int and 0 <= total < p and total == (x + y) % p
                        assert type(product) is int and 0 <= product < p
                        assert product == (x * y) % p
                    else:
                        assert type(total) in (int, Fraction) and total == Fraction(x) + y
                        assert type(product) in (int, Fraction) and product == Fraction(x) * y
                    if (y % p if p else y) == 0:
                        with pytest.raises(ZeroDivisionError):
                            f.div(x, y)
                        continue
                    ratio = f.div(x, y)
                    if p:
                        assert type(ratio) is int and 0 <= ratio < p
                        assert (ratio * y - x) % p == 0
                    else:
                        assert type(ratio) is Fraction and ratio == Fraction(x) / Fraction(y)
                for e in (0, 1, 2, 7):
                    power = f.pow(x, e)
                    if p:
                        assert type(power) is int and 0 <= power < p and power == x**e % p
                    else:
                        assert type(power) in (int, Fraction) and power == Fraction(x) ** e


def test_rational_scalars_are_exact():
    a = RATIONALS.scalar(Fraction(1, 3))
    b = RATIONALS.scalar(Fraction(1, 6))
    assert a + b == RATIONALS.scalar(Fraction(1, 2))
    assert (a / b).value == 2
    assert a.text() == "1/3"
    assert RATIONALS.parse("-7/2").value == Fraction(-7, 2)
    assert RATIONALS.parse("5").value == 5


def test_fraction_coercion_in_prime_field():
    f = PrimeField(7)
    half = f.scalar(Fraction(1, 2))
    assert half * 2 == f.one()


def test_ring_mismatch_detected():
    a = PrimeField(7).scalar(3)
    b = PrimeField(11).scalar(3)
    with pytest.raises(RingMismatch):
        _ = a + b
    with pytest.raises(RingMismatch):
        _ = a * RATIONALS.scalar(1)


def test_scalar_pow_and_negatives():
    f = PrimeField(101)
    x = f.scalar(5)
    assert x**0 == f.one()
    assert x**3 == f.scalar(125 % 101)
    assert x**-1 == x.inverse()
    assert -x == f.scalar(96)


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(101), PrimeField(DEFAULT_PRIME)], ids=str)
def test_negation_is_the_rings_raw_neg(ring):
    # -x is ring.neg of x's value, a canonical raw value: in [0, p) over
    # F_p, and over Q the Fraction itself, negated.
    values = [0, 1, -1, 5, -7, Fraction(3, 4), Fraction(-5, 2), 10**30 + 3]
    for value in map(ring.scalar, values):
        negated = -value
        assert negated.ring == ring
        assert negated.value == ring.neg(value.value) == ring.mul(value.value, -1)
        assert type(negated.value) is type(value.value)
        assert negated + value == ring.zero()
        assert -negated == value
        assert value - value == ring.zero()
    if ring.characteristic:
        assert [ring.neg(a) for a in (0, 1, -1, 101, -205, 2 * ring.characteristic + 3)] == [
            0, ring.characteristic - 1, 1, (-101) % ring.characteristic,
            205 % ring.characteristic, ring.characteristic - 3,
        ]
    else:
        assert ring.neg(Fraction(3, 4)) == Fraction(-3, 4)
        assert ring.neg(-2) == 2


def test_descriptor_roundtrip():
    assert ring_from_descriptor(["prime", "7"]) == PrimeField(7)
    assert ring_from_descriptor(["rational"]) == RATIONALS
    with pytest.raises(ParamError):
        ring_from_descriptor(["octonion"])


def test_sample_points_checks_field_size():
    f = PrimeField(5)
    assert [s.value for s in f.sample_points(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(FieldTooSmall):
        f.sample_points(6)
    assert len(RATIONALS.sample_points(10)) == 10


def test_interpolation_two_points():
    # Values 1 at 0 and 3 at 1 fit the line 1 + 2z.
    coeffs = vandermonde_solve(RATIONALS, [0, 1], [1, 3])
    assert [c.value for c in coeffs] == [1, 2]


def test_interpolation_quadratic_mod_7():
    f = PrimeField(7)
    # 2 + 3z + z^2 at z = 1, 2, 3.
    values = [(2 + 3 * z + z * z) % 7 for z in (1, 2, 3)]
    coeffs = vandermonde_solve(f, [1, 2, 3], values)
    assert [c.value for c in coeffs] == [2, 3, 1]


def test_interpolation_rejects_duplicates():
    with pytest.raises(DuplicatePoint):
        vandermonde_solve(RATIONALS, [1, 1], [2, 2])


def test_interpolation_reconstructs_random_polynomials():
    f = PrimeField(DEFAULT_PRIME)
    rng = random.Random(7311)
    for trial in range(20):
        n = rng.randrange(1, 33)
        coeffs = [f.scalar(rng.randrange(DEFAULT_PRIME)) for _ in range(n)]
        points = f.sample_points(n)
        values = [poly_eval(coeffs, x) for x in points]
        recovered = vandermonde_solve(f, points, values)
        assert recovered == coeffs


def test_lagrange_matrix_columns_are_basis_polynomials():
    f = PrimeField(13)
    points, matrix = lagrange_grid(f, 4)
    for j, xj in enumerate(points):
        column = [matrix[i][j] for i in range(4)]
        for k, xk in enumerate(points):
            expected = f.one() if k == j else f.zero()
            assert poly_eval(column, xk) == expected


def test_vandermonde_length_mismatch():
    with pytest.raises(ParamError):
        vandermonde_solve(RATIONALS, [0, 1], [1])


def _exact(entries):
    return [(s.ring, type(s.value), s.value) for s in entries]


@pytest.mark.parametrize(
    "ring",
    [RATIONALS, PrimeField(101), PrimeField(2**31 - 1), PrimeField(DEFAULT_PRIME)],
    ids=["Q", "F101", "F2^31-1", "F2^61-1"],
)
def test_lagrange_grid_equals_the_general_oracle(ring):
    for k in range(1, 41):
        points, matrix = lagrange_grid(ring, k)
        assert _exact(points) == _exact(ring.sample_points(k))
        want = reference_lagrange_matrix(ring, points)
        assert [_exact(row) for row in matrix] == [_exact(row) for row in want]


def test_lagrange_grid_over_a_field_just_large_enough():
    # k = p is the largest grid: every D_j = prod (j - i) still has
    # factors below p only, so it is a unit.
    f = PrimeField(7)
    for k in range(1, 8):
        points, matrix = lagrange_grid(f, k)
        assert [_exact(row) for row in matrix] == [
            _exact(row) for row in reference_lagrange_matrix(f, points)
        ]


def test_lagrange_grid_builds_each_raw_table_once():
    # The raw matrix is memoized per (ring, count), equal rings sharing
    # it; every call returns tuples of fresh Scalars over it.
    _lagrange_raw.cache_clear()
    first = lagrange_grid(PrimeField(103), 9)
    again = lagrange_grid(PrimeField(103), 9)
    assert _lagrange_raw.cache_info().misses == 1 and _lagrange_raw.cache_info().hits == 1
    assert again == first and again[1][0][0] is not first[1][0][0]
    points, matrix = again
    assert type(points) is tuple and all(type(row) is tuple for row in matrix)
    assert type(matrix) is tuple and len(matrix) == 9
    lagrange_grid(RATIONALS, 9)
    assert _lagrange_raw.cache_info().misses == 2


def test_lagrange_grid_rejects_bad_counts():
    with pytest.raises(FieldTooSmall):
        lagrange_grid(PrimeField(7), 8)
    with pytest.raises(FieldTooSmall):
        lagrange_grid(PrimeField(101), 102)
    for k in (0, -1):
        with pytest.raises(ParamError):
            lagrange_grid(RATIONALS, k)
