"""Sparse polynomial arithmetic, lex order, the differential pairing."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasicov.polynomials import (
    Polynomial,
    apply_diff,
    exponent_vectors,
    parse_polynomial,
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


def test_lex_order_is_multiplicative():
    # The monomial order is native tuple order on exponent vectors; it must
    # survive multiplication by a common monomial.
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        nu = tuple(rng.randrange(4) for _ in range(n))
        mu = tuple(rng.randrange(4) for _ in range(n))
        kappa = tuple(rng.randrange(4) for _ in range(n))
        shifted_nu = tuple(a + b for a, b in zip(nu, kappa))
        shifted_mu = tuple(a + b for a, b in zip(mu, kappa))
        assert (nu < mu) == (shifted_nu < shifted_mu)
        assert (nu == mu) == (shifted_nu == shifted_mu)


def test_basic_arithmetic():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert_cancelled_to((x1 + x2) * (x1 - x2), x1 * x1 - x2 * x2)
    p = P("x1^2*x2 + 3*x1", 2)
    assert (p + (-p)).is_zero()
    assert_cancelled_to(p + P("x1 - 3*x1", 2), P("x1^2*x2 + x1", 2))
    assert (x1 + x2) * (x1 + x2) == x1 * x1 + 2 * x1 * x2 + x2 * x2
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


@pytest.mark.parametrize("n", range(8))
def test_exponent_vectors_match_an_itertools_reference(n):
    for d in range(9):
        expected = [nu for nu in itertools.product(range(d + 1), repeat=n) if sum(nu) == d]
        assert exponent_vectors(n, d) == expected


def test_render_canonical_format():
    m21 = P("x1^2*x2 + x1^2*x3 + x2^2*x3", 3)
    assert render_polynomial(m21) == "x1^2*x2 + x1^2*x3 + x2^2*x3"
    assert render_polynomial(P("x1 - 2*x2", 2)) == "x1 - 2*x2"
    assert render_polynomial(Polynomial.zero(2)) == "0"
    assert render_polynomial(Polynomial.one(2)) == "1"
    assert render_polynomial(P("-x1 + 1/2*x2", 2)) == "-x1 + 1/2*x2"


def test_render_cyclotomic_coefficients():
    z2 = Cyclotomic.zeta(3, 2)
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


def _in_smallest_field(p):
    """Every stored coefficient is a Fraction or an irrational Cyclotomic."""
    return all(
        type(c) is Fraction or (type(c) is Cyclotomic and not c.is_rational())
        for c in p.terms.values()
    )


def test_promotion():
    """Arithmetic with a Cyclotomic lifts rational coefficients into
    Q(zeta); a rational result falls back to a Fraction."""
    p = P("x1 - x2", 2)
    q = p * Cyclotomic.zeta(4)
    assert all(type(c) is Cyclotomic and c.order == 4 for c in q.terms.values())
    assert q * Cyclotomic.zeta(4) == -p
    assert all(type(c) is Fraction for c in (q * Cyclotomic.zeta(4)).terms.values())
    assert Cyclotomic.from_rational(4, 2) * p == p * 2 == P("2*x1 - 2*x2", 2)
    with pytest.raises(ValueError):
        q * Cyclotomic.zeta(3)
    # A literal that is rational parses to a Fraction, whatever its order.
    r = P("(2)*x1 + (1-z+z)*x2", 2, order=5)
    assert r == P("2*x1 + x2", 2) and _in_smallest_field(r)


def test_promotion_of_mixed_coefficients():
    zeta = Cyclotomic.zeta(4)
    three_halves = Cyclotomic.from_rational(4, Fraction(3, 2))
    p = Polynomial(2, {(1, 0): three_halves, (0, 1): zeta, (0, 0): -2})
    assert type(p.terms[(1, 0)]) is Fraction and p.terms[(1, 0)] == Fraction(3, 2)
    assert type(p.terms[(0, 0)]) is Fraction
    assert p.terms[(0, 1)] is zeta
    assert render_polynomial(p) == "3/2*x1 + (z)*x2 - 2"
    assert p == Polynomial(2, {(1, 0): Fraction(3, 2), (0, 1): zeta, (0, 0): -2})
    # zeta * zeta = -1 in Q(zeta_4): the product's x2 coefficient is rational.
    q = p * zeta
    assert q.terms[(0, 1)] == Fraction(-1) and type(q.terms[(0, 1)]) is Fraction
    assert render_polynomial(q) == "(3/2z)*x1 - x2 + (-2z)"
    assert _in_smallest_field(p) and _in_smallest_field(q)


@st.composite
def mixed_polynomials(draw):
    """(p, q, order): polynomials built from ints, Fractions and Cyclotomic
    values of one order, some of them rational and some past phi long."""
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 12]))
    rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    cyclotomic = st.lists(rational, max_size=euler_phi(order) + 1).map(
        lambda cs: Cyclotomic(order, cs)
    )
    coeff = st.integers(-3, 3) | rational | cyclotomic
    exps = st.tuples(*[st.integers(0, 3)] * n)
    p, q = (Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=5))) for _ in "pq")
    return p, q, order


@settings(max_examples=150)
@given(mixed_polynomials())
def test_built_polynomials_store_each_coefficient_in_the_smallest_field(case):
    p, q, order = case
    for built in (p, q, p + q, p - q, -p, p * q, p * Cyclotomic.zeta(order)):
        assert _in_smallest_field(built)
        assert parse_polynomial(render_polynomial(built), p.nvars, order=order) == built
