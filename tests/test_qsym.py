"""Compositions, quasi-symmetric generators, quasi-invariance."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from test_linalg import sparse_int_rows

from quasicov.group import fixed_space_dimension, is_quasi_invariant
from quasicov.linalg import rank
from quasicov.polynomials import Polynomial, exponent_vectors, parse_polynomial
from quasicov.qsym import (
    compositions_of,
    count_compositions,
    elementary_symmetric_power,
    fundamental_qsym,
    is_lyndon,
    lyndon_quasi_invariant_generators,
    monomial_qsym,
    quasi_invariant_generators,
    vector_to_composition,
)


def _brute_force_compositions(d, max_parts):
    """Independent enumeration: compositions of d correspond to subsets of
    the d-1 gaps between d units."""
    if d == 0:
        return {()}
    found = set()
    for cuts in product([0, 1], repeat=d - 1):
        parts = []
        current = 1
        for cut in cuts:
            if cut:
                parts.append(current)
                current = 1
            else:
                current += 1
        parts.append(current)
        if len(parts) <= max_parts:
            found.add(tuple(parts))
    return found


def test_compositions_examples():
    assert compositions_of(3, 2) == [(3,), (2, 1), (1, 2)]
    assert compositions_of(0, 5) == [()]
    assert len(compositions_of(4, 4)) == 8


@pytest.mark.parametrize("d", range(8))
@pytest.mark.parametrize("max_parts", range(1, 6))
def test_compositions_against_brute_force(d, max_parts):
    got = compositions_of(d, max_parts)
    assert len(got) == len(set(got))
    assert set(got) == _brute_force_compositions(d, max_parts)


def test_count_compositions_is_the_length_of_the_list():
    for d in range(13):
        for max_parts in range(7):
            assert count_compositions(d, max_parts) == len(compositions_of(d, max_parts))


def test_vector_to_composition():
    assert vector_to_composition((2, 1, 0, 3, 0, 1)) == (2, 1, 3, 1)
    assert vector_to_composition((0, 0, 0)) == ()
    assert vector_to_composition((0, 3, 1, 1, 0, 2)) == (3, 1, 1, 2)


def test_monomial_qsym_examples():
    assert monomial_qsym((1,), 2) == parse_polynomial("x1 + x2", 2)
    expected = parse_polynomial("x1^2*x2 + x1^2*x3 + x2^2*x3", 3)
    assert monomial_qsym((2, 1), 3) == expected
    assert monomial_qsym((), 3) == Polynomial.one(3)
    with pytest.raises(ValueError):
        monomial_qsym((1, 1, 1), 2)


def test_monomial_qsym_term_count():
    for n in range(1, 6):
        for d in range(6):
            for alpha in compositions_of(d, n):
                assert len(monomial_qsym(alpha, n).terms) == comb(n, len(alpha))


def test_fundamental_qsym_examples():
    assert fundamental_qsym((1, 1), 2) == parse_polynomial("x1*x2", 2)
    assert fundamental_qsym((2,), 2) == parse_polynomial("x1^2 + x1*x2 + x2^2", 2)
    assert fundamental_qsym((), 4) == Polynomial.one(4)


def _is_quasi_symmetric(p):
    """Reference predicate: the coefficient of X^nu depends only on the
    composition of nu, over all C(n, len) vectors of that composition."""
    by_composition: dict = {}
    for exps, coeff in p.terms.items():
        by_composition.setdefault(vector_to_composition(exps), []).append(coeff)
    return all(
        len(coeffs) == comb(p.nvars, len(alpha)) and len(set(coeffs)) == 1
        for alpha, coeffs in by_composition.items()
    )


def test_generator_families_are_quasi_symmetric():
    for n in range(1, 6):
        for d in range(6):
            for alpha in compositions_of(d, n):
                assert _is_quasi_symmetric(monomial_qsym(alpha, n))
                assert _is_quasi_symmetric(fundamental_qsym(alpha, n))


def test_quasi_invariant_generators_examples():
    got = quasi_invariant_generators(2, 2, 4)
    expected = [
        parse_polynomial("x1^2 + x2^2", 2),
        parse_polynomial("x1^4 + x2^4", 2),
        parse_polynomial("x1^2*x2^2", 2),
    ]
    assert got == expected
    assert quasi_invariant_generators(1, 3, 3) == [parse_polynomial("x1^3", 1)]
    assert quasi_invariant_generators(2, 1, 2) == [
        parse_polynomial("x1 + x2", 2),
        parse_polynomial("x1^2 + x2^2", 2),
        parse_polynomial("x1*x2", 2),
    ]


def test_generators_are_homogeneous_of_the_right_degree():
    for n, m in [(2, 2), (3, 2), (3, 3)]:
        for g in quasi_invariant_generators(n, m, 9):
            assert g.is_homogeneous()
            assert g.degree() % m == 0
            assert g.degree() <= 9


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_generators_pass_full_quasi_invariance(n, m):
    for g in quasi_invariant_generators(n, m, 2 * m):
        assert is_quasi_invariant(g, n, m)


def test_is_lyndon_examples():
    for alpha in [(1,), (5,), (1, 2), (1, 1, 2), (1, 2, 2), (1, 3, 1, 4)]:
        assert is_lyndon(alpha)
    for alpha in [(), (1, 1), (2, 1), (1, 2, 1), (1, 2, 1, 2), (2, 1, 1)]:
        assert not is_lyndon(alpha)


def _moebius(k):
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


@pytest.mark.parametrize("d", range(1, 13))
def test_lyndon_compositions_match_the_necklace_count(d):
    """Writing each part a as 1 0^(a-1) maps the rotation classes of
    compositions of d onto the binary necklaces of length d other than
    0...0, aperiodic to aperiodic; those number
    (1/d) * sum over k | d of mu(k) (2^(d/k) - 1)."""
    expected = sum(_moebius(k) * (2 ** (d // k) - 1) for k in range(1, d + 1) if d % k == 0)
    assert expected % d == 0
    assert sum(map(is_lyndon, compositions_of(d, d))) == expected // d


def test_lyndon_generators_are_the_lyndon_part_of_the_family():
    for n, max_deg, count in [(1, 3, 3), (3, 5, 12), (6, 6, 22), (7, 7, 40)]:
        lyndon = lyndon_quasi_invariant_generators(n, max_deg)
        assert len(lyndon) == count
        # The leading monomial of M_alpha is alpha padded with zeros.
        assert lyndon == [
            g
            for g in quasi_invariant_generators(n, 1, max_deg)
            if is_lyndon(vector_to_composition(g.leading_monomial()[0]))
        ]


def test_elementary_symmetric_power_examples():
    assert elementary_symmetric_power(1, 2, 1) == parse_polynomial("x1 + x2", 2)
    assert elementary_symmetric_power(2, 2, 2) == parse_polynomial("x1^2*x2^2", 2)
    assert elementary_symmetric_power(1, 2, 2) == parse_polynomial("x1^2 + x2^2", 2)
    with pytest.raises(ValueError):
        elementary_symmetric_power(3, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_quasi_invariant_span_matches_fixed_space(n, m):
    """The degree-d generators span exactly the degree-d fixed space: their
    rank equals the composition count, which equals the action's fixed-space
    dimension.  Degrees not divisible by m hold no quasi-invariants."""
    for d in range(7):
        if d == 0:
            gens = [Polynomial.one(n)]  # the empty composition gives M_() = 1
        else:
            gens = [g for g in quasi_invariant_generators(n, m, d) if g.degree() == d]
        monomials = exponent_vectors(n, d)
        index = {nu: i for i, nu in enumerate(monomials)}
        rows = []
        for g in gens:
            row = [Fraction(0)] * len(monomials)
            for nu, c in g.terms.items():
                row[index[nu]] = c
            rows.append(row)
        span_dim = rank(sparse_int_rows(rows))
        expected = count_compositions(d // m, n) if d % m == 0 else 0
        assert span_dim == expected
        assert fixed_space_dimension(n, m, d, "quasi") == expected
