"""Exact rational and cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from quasicov.scalars import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity_power,
)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    # exact division oracle: (z^6 - 1) / (Phi_1 Phi_2 Phi_3) = z^2 - z + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_product_over_divisors(m):
    product = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            product = _int_poly_mul(product, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (m - 1) + [1]
    assert product == expected
    assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_totient_values():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cube_root_arithmetic():
    z = Cyclotomic.zeta(3)
    assert z * z == z**2
    assert z * z**2 == Cyclotomic.one(3)  # z^3 = 1
    # canonical form of z^2 modulo z^2 + z + 1
    assert z**2 == Cyclotomic(3, (-1, -1))
    assert str(z**2) == "-1-z"


def test_square_root_of_unity_is_minus_one():
    w = root_of_unity_power(2, 1)
    assert w == Fraction(-1)
    assert w == -1
    assert str(w) == "-1"


def test_root_of_unity_power_wraps():
    assert root_of_unity_power(3, 0) == 1
    assert root_of_unity_power(3, 4) == Cyclotomic.zeta(3)
    assert root_of_unity_power(5, -1) == Cyclotomic.zeta(5, 4)


@pytest.mark.parametrize("m", range(1, 13))
def test_multiplicative_orders(m):
    for k in range(m):
        w = root_of_unity_power(m, k)
        power = w
        order = 1
        while power != 1:
            power = power * w
            order += 1
            assert order <= m
        assert order == m // gcd(m, k) if k else order == 1


@pytest.mark.parametrize("m", range(2, 13))
def test_roots_of_unity_sum_to_zero(m):
    total = Cyclotomic.zero(m)
    for k in range(m):
        total = total + root_of_unity_power(m, k)
    assert not total
    assert total == 0


def _random_element(rng, m):
    return Cyclotomic(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(m))])


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 12])
def test_field_axioms(m):
    rng = random.Random(1000 + m)
    one = Cyclotomic.one(m)
    for _ in range(25):
        a, b, c = (_random_element(rng, m) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == one
            assert a / a == one


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inverse()


def test_order_mismatch_is_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) * Cyclotomic.zeta(4)


def test_rational_embedding_and_comparison():
    half = Cyclotomic.from_rational(6, Fraction(1, 2))
    assert half.is_rational()
    assert half.rational_value() == Fraction(1, 2)
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert Cyclotomic.zeta(5) != Fraction(1)
    assert not Cyclotomic.zeta(5).is_rational()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_text_round_trip(m):
    rng = random.Random(77 + m)
    for _ in range(20):
        a = _random_element(rng, m)
        assert Cyclotomic.parse(m, str(a)) == a
    assert Cyclotomic.parse(3, "-1-z") == Cyclotomic(3, (-1, -1))
    assert Cyclotomic.parse(m, "0") == Cyclotomic.zero(m)


def test_parse_reduces_exponents_mod_order():
    # z^m = 1 in Q(zeta_m), so a huge exponent costs no more than a small one.
    assert Cyclotomic.parse(3, "z^3000001") == Cyclotomic.zeta(3, 1)
    assert Cyclotomic.parse(5, "2z^10+z^11") == Cyclotomic.parse(5, "2+z")
    assert Cyclotomic.parse(1, "z") == Cyclotomic.one(1)
    with pytest.raises(ValueError):
        Cyclotomic.parse(0, "z^2")


def test_mixed_scalar_arithmetic():
    z = Cyclotomic.zeta(3)
    assert 1 + z == z + 1
    assert 2 * z == z + z
    assert (1 - z) + (z - 1) == 0
    assert z / 2 == z * Fraction(1, 2)
    assert 1 / z == z.inverse()
