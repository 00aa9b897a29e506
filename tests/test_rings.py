"""Scalar arithmetic and exact interpolation."""

import random
from fractions import Fraction

import pytest

from genutil import reference_lagrange_matrix, vandermonde_solve
from slpforge.errors import DuplicatePoint, FieldTooSmall, ParamError, RingMismatch
from slpforge.rings import (
    DEFAULT_PRIME,
    PrimeField,
    RATIONALS,
    Scalar,
    is_probable_prime,
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


def test_prime_field_rejects_composites():
    with pytest.raises(ParamError):
        PrimeField(6)
    with pytest.raises(ParamError):
        PrimeField(1)
    assert PrimeField(7).characteristic == 7


def test_field_axioms_randomized():
    f = PrimeField(DEFAULT_PRIME)
    rng = random.Random(20240801)
    for _ in range(200):
        a = f.scalar(rng.randrange(DEFAULT_PRIME))
        b = f.scalar(rng.randrange(DEFAULT_PRIME))
        c = f.scalar(rng.randrange(DEFAULT_PRIME))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * f.one() == a
        assert a + f.zero() == a
        if not a.is_zero:
            assert a * a.inverse() == f.one()


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


def test_lagrange_grid_rejects_bad_counts():
    with pytest.raises(FieldTooSmall):
        lagrange_grid(PrimeField(7), 8)
    with pytest.raises(FieldTooSmall):
        lagrange_grid(PrimeField(101), 102)
    for k in (0, -1):
        with pytest.raises(ParamError):
            lagrange_grid(RATIONALS, k)
