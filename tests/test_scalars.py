"""Exact rational and cyclotomic arithmetic."""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quasicov.scalars import Cyclotomic, cyclotomic_polynomial, euler_phi


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


def _exact_quotient(num, den):
    """num / den in Q[z] for a monic den that divides num exactly."""
    num = list(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        quot[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
    assert not any(num)
    return quot


@lru_cache(maxsize=None)
def _reference_cyclotomic_polynomial(m):
    """Phi_m by the recursion z^m - 1 = prod_{d | m} Phi_d: divide z^m - 1
    by Phi_d for every proper divisor d, in Fractions."""
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_quotient(poly, _reference_cyclotomic_polynomial(d))
    return tuple(int(c) for c in poly)


def test_cyclotomic_polynomial_matches_the_division_recursion():
    for m in range(1, 121):
        assert cyclotomic_polynomial(m) == _reference_cyclotomic_polynomial(m), m


def test_cyclotomic_polynomial_with_many_divisors():
    # 2310 = 2*3*5*7*11 has 32 divisors; the division recursion took
    # seconds here, the integer Moebius product milliseconds.
    cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    poly = cyclotomic_polynomial(2310)
    assert time.perf_counter() - start < 1.0
    assert len(poly) - 1 == euler_phi(2310) == 480
    assert poly[-1] == 1 and poly == poly[::-1]
    assert sum(poly) == 1  # Phi_m(1) = 1 unless m is a prime power


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_totient_values():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cube_root_arithmetic():
    z = Cyclotomic.zeta(3)
    assert z * z == Cyclotomic.zeta(3, 2)
    assert z * z * z == Cyclotomic.one(3)  # z^3 = 1
    # canonical form of z^2 modulo z^2 + z + 1
    assert z * z == Cyclotomic(3, (-1, -1))
    assert str(z * z) == "-1-z"


def test_square_root_of_unity_is_minus_one():
    w = Cyclotomic.zeta(2, 1)
    assert w == Fraction(-1)
    assert w == -1
    assert str(w) == "-1"


def test_root_of_unity_power_wraps():
    assert Cyclotomic.zeta(3, 0) == 1
    assert Cyclotomic.zeta(3, 4) == Cyclotomic.zeta(3)
    assert Cyclotomic.zeta(5, -1) == Cyclotomic.zeta(5, 4)


@pytest.mark.parametrize("m", range(1, 13))
def test_multiplicative_orders(m):
    for k in range(m):
        w = Cyclotomic.zeta(m, k)
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
        total = total + Cyclotomic.zeta(m, k)
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
    assert half.coeffs[0] == Fraction(1, 2)
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
    assert z.inverse() == Cyclotomic.zeta(3, -1)
    assert (2 * z).inverse() == Cyclotomic.zeta(3, 2) * Fraction(1, 2)


# Every order up to 12 plus a few with larger phi.
SHIFT_ORDERS = list(range(1, 13)) + [15, 18, 24, 30]


def _coefficients(m):
    return st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        min_size=euler_phi(m),
        max_size=euler_phi(m),
    )


@pytest.mark.parametrize("m", SHIFT_ORDERS)
@settings(max_examples=10)
@given(data=st.data())
def test_power_blocks_multiply_by_roots_of_unity(m, data):
    # times_zeta shifts the coefficients and reduces by Phi_m; the reference
    # is the full product with zeta^k.
    c = Cyclotomic(m, data.draw(_coefficients(m)))
    for k in range(m):
        assert c.times_zeta(k) == c * Cyclotomic.zeta(m, k)
    assert c.times_zeta(-1) == c.times_zeta(m - 1)


def test_power_blocks_at_order_105():
    # 105 is the first order whose Phi_m has a coefficient outside {-1, 0, 1};
    # the phases straddle phi(105) = 48, where the first fold happens.
    m = 105
    assert min(cyclotomic_polynomial(m)) == -2
    c = _random_element(random.Random(105), m)
    for k in (0, 1, 47, 48, 49, 77, 104):
        assert c.times_zeta(k) == c * Cyclotomic.zeta(m, k)


# ---- the canonical coefficient form -----------------------------------------

# Every order up to 30, then 105 (the first Phi_m with a coefficient -2) and
# 300 (phi = 80).
CANONICAL_ORDERS = list(range(1, 31)) + [105, 300]

_RATIONALS = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
)


def _cyclotomics(m):
    """Integral and fractional entries, up to phi(m) + 2 of them, so some
    lists are longer than phi(m) and are reduced modulo Phi_m."""
    return st.lists(_RATIONALS, max_size=euler_phi(m) + 2).map(
        lambda cs: Cyclotomic(m, cs)
    )


def _power(a, k):
    """a^k by repeated multiplication; a^-1 is ``a.inverse()``."""
    base = a if k >= 0 else a.inverse()
    out = Cyclotomic.one(a.order)
    for _ in range(abs(k)):
        out = out * base
    return out


def _assert_canonical(value):
    for c in value.coeffs:
        if type(c) is not int:
            assert type(c) is Fraction and c.denominator != 1, value.coeffs


def test_integral_coefficients_are_ints():
    a = Cyclotomic(3, [Fraction(4, 2), Fraction(1, 2)])
    assert a.coeffs == (2, Fraction(1, 2)) and type(a.coeffs[0]) is int
    assert type(Cyclotomic.from_rational(5, Fraction(6, 3)).coeffs[0]) is int
    assert type((a + Cyclotomic(3, [0, Fraction(1, 2)])).coeffs[1]) is int


@pytest.mark.parametrize("m", CANONICAL_ORDERS)
@settings(max_examples=4)
@given(data=st.data())
def test_coefficients_stay_canonical(m, data):
    a = data.draw(_cyclotomics(m))
    b = data.draw(_cyclotomics(m))
    r = data.draw(_RATIONALS)
    k = data.draw(st.integers(-3, 3))
    values = [
        a + b, a - b, a * b, -a, a + r, r - a, a * r,
        _power(a, k if a else abs(k)),
        Cyclotomic.parse(m, str(a)),
        Cyclotomic.zeta(m, k),
        Cyclotomic.from_rational(m, r),
        Cyclotomic(m, [0] * m + list(a.coeffs)),
    ]
    if b:
        values += [a * b.inverse(), b.inverse(), r * b.inverse()]
    for v in values:
        _assert_canonical(v)


@pytest.mark.parametrize("m", CANONICAL_ORDERS)
@settings(max_examples=4)
@given(data=st.data())
def test_equal_values_have_equal_coefficients_and_hashes(m, data):
    a = data.draw(_cyclotomics(m))
    b = data.draw(_cyclotomics(m))
    routes = [
        (a + b) - b,
        a * Cyclotomic.one(m),
        Cyclotomic(m, [Fraction(c) for c in a.coeffs]),
        Cyclotomic(m, [0] * m + list(a.coeffs)),  # z^m * a, reduced by Phi_m
        Cyclotomic.parse(m, str(a)),  # the text round trip
    ]
    if b:
        routes.append((a * b) * b.inverse())
    for v in routes:
        assert v == a
        assert v.coeffs == a.coeffs
        assert hash(v) == hash(a)
    if a:
        assert a * a.inverse() == 1


def test_inverse_of_a_dense_element_of_order_300():
    # 80 nonzero entries with denominators up to 4: extended Euclid over
    # Fractions took tens of seconds on this; the norm map takes well under one.
    rng = random.Random(300)
    a = Cyclotomic(300, [
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(80)
    ])
    assert all(a.coeffs)
    assert a * a.inverse() == 1
