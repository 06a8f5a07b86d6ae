"""Lattice paths, Dyck vectors, the quotient basis, minimal transdiagonals."""

from itertools import product
from math import comb

import pytest

from quasicov.paths import (
    catalan,
    enumerate_dyck,
    is_dyck,
    minimal_transdiagonal,
    quotient_basis,
)
from quasicov.polynomials import exponent_vectors


def test_classify_examples():
    assert is_dyck((0, 0, 1, 2, 0, 1))  # touches the diagonal at (3,3)
    assert not is_dyck((0, 3, 1, 1, 0, 2))
    assert not is_dyck((1, 0))
    assert is_dyck((0,) * 4)


def _is_dyck_by_path_points(nu):
    """Independent oracle: walk the path E^nu1 N ... E^nun N from the
    origin, one step at a time, and require x <= y at every lattice point."""
    x = y = 0
    for step in "".join("E" * e + "N" for e in nu):
        if step == "E":
            x += 1
        else:
            y += 1
        if x > y:
            return False
    return True


def test_classify_against_path_points():
    for n in range(1, 5):
        for d in range(6):
            for nu in exponent_vectors(n, d):
                assert is_dyck(nu) == _is_dyck_by_path_points(nu)


def test_enumerate_dyck_examples():
    assert enumerate_dyck(1) == [(0,)]
    assert enumerate_dyck(2) == [(0, 0), (0, 1)]
    assert enumerate_dyck(3) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 0, 2), (0, 1, 1)]


@pytest.mark.parametrize("n", range(1, 9))
def test_dyck_count_is_catalan(n):
    vectors = enumerate_dyck(n)
    assert len(vectors) == catalan(n)
    assert len(set(vectors)) == len(vectors)
    assert all(sum(nu) <= n - 1 for nu in vectors)
    assert all(is_dyck(nu) for nu in vectors)


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert catalan(3) == comb(6, 3) // 4
    with pytest.raises(ValueError):
        catalan(-1)


def test_quotient_basis_examples():
    assert set(quotient_basis(2, 2)) == {
        (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3),
    }
    assert quotient_basis(1, 3) == [(0,), (1,), (2,)]
    for n in range(1, 5):
        assert quotient_basis(n, 1) == enumerate_dyck(n)


def test_quotient_basis_counts():
    for n in range(1, 7):
        for m in range(1, 5):
            vectors = quotient_basis(n, m)
            assert len(vectors) == m**n * catalan(n)
            assert len(set(vectors)) == len(vectors)


def test_quotient_basis_is_graded_lex_sorted():
    vectors = quotient_basis(3, 2)
    assert vectors == sorted(vectors, key=lambda nu: (sum(nu), nu))


def test_minimal_transdiagonal_examples():
    assert minimal_transdiagonal(2, 2) == [(1, 0), (0, 2)]
    assert minimal_transdiagonal(1, 1) == [(1,)]
    assert minimal_transdiagonal(3, 1) == [(1, 0, 0)]


def test_minimal_transdiagonal_is_minimal():
    for n in range(1, 5):
        minimals = minimal_transdiagonal(n, n + 2)
        for eps in minimals:
            assert not is_dyck(eps)
            for i in range(n):
                if eps[i]:
                    down = eps[:i] + (eps[i] - 1,) + eps[i + 1:]
                    assert is_dyck(down)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("n", range(1, 5))
def test_dyck_transdiagonal_dichotomy(n):
    """Every vector is either Dyck or divisible by a minimal transdiagonal
    vector, never both."""
    minimals = minimal_transdiagonal(n, n + 3)
    for d in range(n + 3):
        for nu in exponent_vectors(n, d):
            divisible = any(_divides(eps, nu) for eps in minimals)
            assert divisible != is_dyck(nu)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_quotient_basis_dichotomy_general_m(n, m):
    """A vector lies in the quotient basis iff it is divisible by no m-fold
    dilation of a minimal transdiagonal vector."""
    basis = set(quotient_basis(n, m))
    top = m * (n - 1) + n * (m - 1)
    dilated = [tuple(m * e for e in eps) for eps in minimal_transdiagonal(n, top)]
    for d in range(top + 2):
        for nu in exponent_vectors(n, d):
            in_basis = nu in basis
            divisible = any(_divides(eps, nu) for eps in dilated)
            assert in_basis != divisible
