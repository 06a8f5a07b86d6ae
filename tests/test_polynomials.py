"""Sparse polynomial arithmetic, lex order, the differential pairing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasicov.polynomials import (
    Polynomial,
    apply_diff,
    exponent_vectors,
    lex_compare,
    parse_polynomial,
    promote_to_cyclotomic,
    render_polynomial,
    scalar_product,
)
from quasicov.scalars import Cyclotomic, euler_phi


def P(text, nvars, order=None):
    return parse_polynomial(text, nvars, order=order)


def assert_cancelled_to(p, expected):
    """p equals expected and keeps no zero coefficient after cancellation."""
    assert p == expected
    assert 0 not in p.terms.values()


def test_lex_compare_examples():
    assert lex_compare((1, 0, 0), (0, 5, 7)) == 1
    assert lex_compare((2, 1, 0), (2, 0, 1)) == 1
    assert lex_compare((1, 2), (1, 2)) == 0
    assert lex_compare((0, 1), (1, 0)) == -1
    with pytest.raises(ValueError):
        lex_compare((1, 0), (1, 0, 0))


def test_lex_order_is_multiplicative():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        nu = tuple(rng.randrange(4) for _ in range(n))
        mu = tuple(rng.randrange(4) for _ in range(n))
        kappa = tuple(rng.randrange(4) for _ in range(n))
        shifted_nu = tuple(a + b for a, b in zip(nu, kappa))
        shifted_mu = tuple(a + b for a, b in zip(mu, kappa))
        assert lex_compare(nu, mu) == lex_compare(shifted_nu, shifted_mu)


def test_basic_arithmetic():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert_cancelled_to((x1 + x2) * (x1 - x2), x1 * x1 - x2 * x2)
    p = P("x1^2*x2 + 3*x1", 2)
    assert (p + (-p)).is_zero()
    assert_cancelled_to(p + P("x1 - 3*x1", 2), P("x1^2*x2 + x1", 2))
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    with pytest.raises(ValueError):
        x1 + Polynomial.variable(3, 1)


def test_substitute_power():
    p = P("x1 + x2", 2)
    assert p.substitute_power(2) == P("x1^2 + x2^2", 2)
    assert p.substitute_power(1) == p
    assert P("x1*x2^2", 2).substitute_power(3) == P("x1^3*x2^6", 2)
    with pytest.raises(ValueError):
        p.substitute_power(0)


def test_substitute_power_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = _random_poly(rng, n)
        q = _random_poly(rng, n)
        m = rng.randint(1, 4)
        assert (p * q).substitute_power(m) == p.substitute_power(m) * q.substitute_power(m)
        assert (p + q).substitute_power(m) == p.substitute_power(m) + q.substitute_power(m)


def _random_poly(rng, n, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(n))
        terms[exps] = Fraction(rng.randint(-4, 4))
    return Polynomial(n, terms)


def test_leading_monomial():
    assert P("x1 + x2", 2).leading_monomial() == ((1, 0), 1)
    # lex order, not degree order
    assert P("x2^3 + x1", 2).leading_monomial() == ((1, 0), 1)
    m21 = P("x1^2*x2 + x1^2*x3 + x2^2*x3", 3)
    assert m21.leading_monomial() == ((2, 1, 0), 1)
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading_monomial()


def test_degree_of_zero_is_undefined():
    with pytest.raises(ValueError):
        Polynomial.zero(3).degree()


def test_apply_diff():
    assert apply_diff(P("x1", 2), P("x1^2", 2)) == P("2*x1", 2)
    assert apply_diff(P("x1*x2", 2), P("x1*x2", 2)) == Polynomial.one(2)
    assert apply_diff(P("x1^2", 2), P("x1^2", 2)) == P("2", 2)
    assert apply_diff(P("x1", 2), P("x2", 2)).is_zero()
    # (d/dx1 - d/dx2) kills x1 + x2: the constant terms cancel
    p = apply_diff(P("x1 - x2", 2), P("x1 + x2 + x1*x2", 2))
    assert_cancelled_to(p, P("x2 - x1", 2))


def test_scalar_product_examples():
    assert scalar_product(P("x1", 2), P("x2", 2)) == 0
    assert scalar_product(P("x1*x2", 2), P("x1*x2", 2)) == 1
    assert scalar_product(P("x1^2", 2), P("x1^2", 2)) == 2


def test_scalar_product_monomial_orthogonality():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        nu = tuple(rng.randrange(4) for _ in range(n))
        mu = tuple(rng.randrange(4) for _ in range(n))
        got = scalar_product(Polynomial.monomial(nu), Polynomial.monomial(mu))
        if nu == mu:
            expected = 1
            for e in nu:
                expected *= math.factorial(e)
            assert got == expected
        else:
            assert got == 0


def test_coefficient_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        pairs = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randrange(3) for _ in range(n))
            pairs[exps] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        p = Polynomial(n, pairs)
        for exps, c in pairs.items():
            assert p.coefficient(exps) == c


def test_exponent_vectors_enumeration():
    assert exponent_vectors(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert exponent_vectors(1, 5) == [(5,)]
    assert len(exponent_vectors(3, 4)) == math.comb(6, 2)


def test_render_canonical_format():
    m21 = P("x1^2*x2 + x1^2*x3 + x2^2*x3", 3)
    assert render_polynomial(m21) == "x1^2*x2 + x1^2*x3 + x2^2*x3"
    assert render_polynomial(P("x1 - 2*x2", 2)) == "x1 - 2*x2"
    assert render_polynomial(Polynomial.zero(2)) == "0"
    assert render_polynomial(Polynomial.one(2)) == "1"
    assert render_polynomial(P("-x1 + 1/2*x2", 2)) == "-x1 + 1/2*x2"


def test_render_cyclotomic_coefficients():
    z2 = Cyclotomic.zeta(3) ** 2
    p = Polynomial(3, {(2, 0, 1): z2})
    assert render_polynomial(p) == "(-1-z)*x1^2*x3"
    assert parse_polynomial("(-1-z)*x1^2*x3", 3, order=3) == p


def test_text_round_trip_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        p = _random_poly(rng, n)
        assert parse_polynomial(render_polynomial(p), n) == p


def test_text_round_trip_cyclotomic():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.choice([2, 3, 4, 6])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randrange(3) for _ in range(n))
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
            terms[exps] = Cyclotomic(m, coeffs)
        p = Polynomial(n, terms)
        assert parse_polynomial(render_polynomial(p), n, order=m) == p


@st.composite
def text_polynomials(draw):
    """(p, n, order): p over Q when order is None, else over Q(zeta_order)
    with coefficient lists one past phi, so some of them reduce."""
    n = draw(st.integers(1, 4))
    order = draw(st.none() | st.sampled_from(list(range(1, 31)) + [105]))
    rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    if order is None:
        coeff = rational
    else:
        size = euler_phi(order) + 1
        coeff = st.lists(rational, max_size=size).map(lambda cs: Cyclotomic(order, cs))
    exps = st.tuples(*[st.integers(0, 6)] * n)
    return Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=6))), n, order


@settings(max_examples=150)
@given(text_polynomials())
def test_text_round_trip_property(case):
    p, n, order = case
    assert parse_polynomial(render_polynomial(p), n, order=order) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x1 + spam", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x9", 2)
    with pytest.raises(ValueError):
        parse_polynomial("(-1-z)*x1", 2)  # cyclotomic literal without an order
    with pytest.raises(ValueError):
        parse_polynomial("1/0*x1", 2)
    with pytest.raises(ValueError):
        parse_polynomial("(1/0)*x1", 2, order=3)
    with pytest.raises(ValueError):
        Cyclotomic.parse(3, "1+2/0z")


def test_parse_drops_cancelled_terms():
    assert_cancelled_to(parse_polynomial("x1 - x1 + x2", 2), P("x2", 2))
    p = parse_polynomial("(z)*x1 + (-z)*x1", 2, order=3)
    assert_cancelled_to(p, Polynomial.zero(2))


def test_parse_sums_repeated_monomials():
    # Over Q(zeta_3): partial sums, and a full cancellation that stores no zero.
    p = parse_polynomial("x1 + (z)*x1 - x1", 2, order=3)
    assert p.terms == {(1, 0): Cyclotomic.zeta(3)}
    assert render_polynomial(p) == "(z)*x1"
    q = parse_polynomial("(1-z)*x2 + (z-1)*x2", 2, order=3)
    assert_cancelled_to(q, Polynomial.zero(2))
    assert q.terms == {}
    r = parse_polynomial("(1-z)*x2 + x1 + (z-1)*x2 + 2", 2, order=3)
    assert_cancelled_to(r, P("x1 + 2", 2, order=3))
    # Over Q the same sums, with Fraction coefficients.
    p = parse_polynomial("x1 + 2*x1 - x1", 2)
    assert p.terms == {(1, 0): Fraction(2)}
    assert render_polynomial(p) == "2*x1"
    q = parse_polynomial("1/2*x2 + x1 - 1/2*x2", 2)
    assert_cancelled_to(q, P("x1", 2))
    assert_cancelled_to(parse_polynomial("3*x2^2 - x2^2 - 2*x2^2", 2), Polynomial.zero(2))


def test_promotion():
    p = P("x1 - x2", 2)
    q = promote_to_cyclotomic(p, 4)
    assert all(isinstance(c, Cyclotomic) for c in q.terms.values())
    assert q == p  # same values, embedded
    with pytest.raises(ValueError):
        promote_to_cyclotomic(q, 3)


def test_promotion_returns_a_polynomial_already_over_the_field():
    q = P("(1-z)*x1 + 3*x2", 2, order=4)
    assert promote_to_cyclotomic(q, 4) is q
    with pytest.raises(ValueError):
        promote_to_cyclotomic(q, 3)
    assert promote_to_cyclotomic(Polynomial.zero(2), 4) == Polynomial.zero(2)


def test_promotion_of_mixed_coefficients():
    zeta = Cyclotomic.zeta(4)
    p = Polynomial(2, {(1, 0): Fraction(3, 2), (0, 1): zeta, (0, 0): -2})
    q = promote_to_cyclotomic(p, 4)
    assert q is not p and q == p
    assert q.terms[(0, 1)] is zeta
    assert q.terms[(1, 0)] == Cyclotomic.from_rational(4, Fraction(3, 2))
    assert all(isinstance(c, Cyclotomic) and c.order == 4 for c in q.terms.values())
    assert render_polynomial(q) == "3/2*x1 + (z)*x2 - 2"
    with pytest.raises(ValueError):
        promote_to_cyclotomic(p, 3)
