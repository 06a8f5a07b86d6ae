"""Hilbert series: standard monomials, closed formulas, kernel oracle."""

import itertools
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st
from test_linalg import sparse_int_rows

from quasicov import hilbert
from quasicov.errors import ResourceLimitError
from quasicov.groebner import StandardMonomialSet, quasi_ideal_basis, standard_monomials
from quasicov.hilbert import (
    HilbertSeries,
    coinvariant_kernel_dim,
    dyck_series,
    kernel_dims_by_residue,
    kernel_dims_until_zero,
    quotient_series,
    series_from_monomials,
    single_prefactor_series,
)
from quasicov.linalg import kernel_dimension
from quasicov.paths import catalan, enumerate_dyck, quotient_basis
from quasicov.polynomials import exponent_vectors
from quasicov.qsym import elementary_symmetric_power, quasi_invariant_generators


def _complete_set(vectors, nvars):
    bound = max((sum(nu) for nu in vectors), default=0) + 1
    return StandardMonomialSet(nvars, tuple(vectors), bound, complete=True)


def test_series_from_monomials_examples():
    s = series_from_monomials(_complete_set(quotient_basis(2, 2), 2))
    assert s.coefficients == (1, 2, 2, 2, 1)
    s = series_from_monomials(_complete_set(enumerate_dyck(3), 3))
    assert s.coefficients == (1, 2, 2)
    s = series_from_monomials(_complete_set([(0, 0)], 2))
    assert s.coefficients == (1,)


def test_series_from_monomials_requires_completeness():
    incomplete = StandardMonomialSet(1, ((0,), (1,)), 1, complete=False)
    with pytest.raises(ValueError):
        series_from_monomials(incomplete)


def test_series_rendering():
    assert str(quotient_series(2, 2)) == "1 + 2t + 2t^2 + 2t^3 + t^4"
    assert str(quotient_series(1, 3)) == "1 + t + t^2"
    assert str(HilbertSeries.from_coefficients([])) == "0"


def test_series_trims_trailing_zeros():
    s = HilbertSeries.from_coefficients([1, 2, 0, 0])
    assert s.coefficients == (1, 2)
    assert s.total() == 3
    assert s.coefficient(0) == 1 and s.coefficient(5) == 0


def test_dyck_series_values():
    assert dyck_series(1).coefficients == (1,)
    assert dyck_series(2).coefficients == (1, 1)
    assert dyck_series(3).coefficients == (1, 2, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_dyck_series_counts_dyck_vectors_by_degree(n):
    """Coefficient k counts the Dyck vectors of degree k."""
    histogram = [0] * n
    for nu in enumerate_dyck(n):
        histogram[sum(nu)] += 1
    while histogram and histogram[-1] == 0:
        histogram.pop()
    assert list(dyck_series(n).coefficients) == histogram
    assert dyck_series(n).total() == catalan(n)


def test_quotient_series_examples():
    assert quotient_series(2, 2).coefficients == (1, 2, 2, 2, 1)
    assert quotient_series(1, 3).coefficients == (1, 1, 1)
    for n in range(1, 5):
        assert quotient_series(n, 1) == dyck_series(n)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(1, 5))
def test_quotient_series_total(n, m):
    assert quotient_series(n, m).total() == m**n * catalan(n)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_quotient_series_matches_basis_histogram(n, m):
    histogram = series_from_monomials(_complete_set(quotient_basis(n, m), n))
    assert histogram == quotient_series(n, m)


def test_single_prefactor_series_is_wrong_for_general_n():
    """The prefactor-to-the-first-power variant totals m * catalan(n), so it
    disagrees with the quotient whenever n >= 2 and m >= 2."""
    for n in range(1, 5):
        for m in range(1, 4):
            literal = single_prefactor_series(n, m)
            assert literal.total() == m * catalan(n)
            if n == 1 or m == 1:
                assert literal == quotient_series(n, m)
            else:
                assert literal != quotient_series(n, m)


def test_kernel_dim_examples():
    assert coinvariant_kernel_dim(1, 2, 2, "quasi") == 0
    assert coinvariant_kernel_dim(3, 2, 0, "quasi") == 1
    assert coinvariant_kernel_dim(3, 2, 0, "classical") == 1
    assert coinvariant_kernel_dim(2, 1, 1, "quasi") == 1  # kernel of d1 + d2
    with pytest.raises(ValueError):
        coinvariant_kernel_dim(2, 1, 1, "other")
    with pytest.raises(ValueError):
        kernel_dims_by_residue(2, 2, "other")


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(1, 5))
def test_residues_match_an_itertools_reference(n, m):
    for s in range(-1, n * (m - 1) + 2):
        expected = [a for a in itertools.product(range(m), repeat=n) if sum(a) == s]
        assert list(hilbert._residues(n, m, s)) == expected


def test_kernel_dim_over_many_variables_does_not_recurse():
    # Degree 1 at m = 2: one block of one column per residue e_i.
    assert coinvariant_kernel_dim(1200, 2, 1) == 1200


def test_kernel_dim_resource_cap():
    with pytest.raises(ResourceLimitError):
        coinvariant_kernel_dim(3, 3, 9, "quasi", max_entries=100)


def test_kernel_cap_is_checked_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("exponent_vectors called before the cap")

    monkeypatch.setattr(hilbert, "exponent_vectors", enumerate_nothing)
    with pytest.raises(ResourceLimitError):
        coinvariant_kernel_dim(3, 3, 9, "quasi", max_entries=100)
    with pytest.raises(ResourceLimitError):
        coinvariant_kernel_dim(300, 1, 2, "quasi")
    with pytest.raises(ResourceLimitError):
        coinvariant_kernel_dim(300, 1, 2, "classical")


def _largest_built_block(monkeypatch, n, m, degree, ideal):
    """Rows times columns of the largest residue block that
    coinvariant_kernel_dim builds, and the dimension it returns."""
    sizes = []

    def record(rows, ncols):
        sizes.append(len(rows) * ncols)
        return kernel_dimension(rows, ncols)

    monkeypatch.setattr(hilbert, "kernel_dimension", record)
    dim = coinvariant_kernel_dim(n, m, degree, ideal, max_entries=10**9)
    monkeypatch.undo()
    return max(sizes), dim


@pytest.mark.parametrize("ideal", ["quasi", "classical"])
@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
def test_kernel_cap_is_the_built_system_size(monkeypatch, ideal, n, m):
    for degree in range(3 * m + 2):
        size, dim = _largest_built_block(monkeypatch, n, m, degree, ideal)
        if size:
            with pytest.raises(ResourceLimitError):
                coinvariant_kernel_dim(n, m, degree, ideal, max_entries=size - 1)
        assert coinvariant_kernel_dim(n, m, degree, ideal, max_entries=size) == dim


def _unsplit_kernel_dim(n, m, degree, ideal):
    """Reference: one dense system for the whole degree, with a row for
    every product X^mu * g and a column for every degree-d monomial, each
    entry weighted by the pairing's <X^nu, X^nu> = nu!."""
    if ideal == "quasi":
        generators = quasi_invariant_generators(n, m, degree)
    else:
        generators = [
            elementary_symmetric_power(k, n, m) for k in range(1, n + 1) if k * m <= degree
        ]
    monomials = exponent_vectors(n, degree)
    index = {nu: i for i, nu in enumerate(monomials)}
    rows = []
    for g in generators:
        for mu in exponent_vectors(n, degree - g.degree()):
            row = [0] * len(monomials)
            for kappa, c in g.terms.items():
                nu = tuple(a + b for a, b in zip(mu, kappa))
                row[index[nu]] = c * prod(map(factorial, nu))
            rows.append(row)
    return kernel_dimension(sparse_int_rows(rows), len(monomials))


@given(data=st.data())
def test_residue_blocks_sum_to_the_unsplit_system(data):
    n = data.draw(st.integers(1, 3), label="n")
    m = data.draw(st.integers(1, 3), label="m")
    degree = data.draw(st.integers(0, 3 * m + 1), label="degree")
    ideal = data.draw(st.sampled_from(["quasi", "classical"]), label="ideal")
    assert coinvariant_kernel_dim(n, m, degree, ideal) == _unsplit_kernel_dim(
        n, m, degree, ideal
    )


def _q_factorial(n):
    """Coefficients of [n]_t! = (1)(1 + t)...(1 + t + ... + t^(n-1))."""
    coefficients = [1]
    for i in range(1, n + 1):
        coefficients = [
            sum(coefficients[j - a] for a in range(i) if 0 <= j - a < len(coefficients))
            for j in range(len(coefficients) + i - 1)
        ]
    return coefficients


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_each_residue_block_carries_the_m_1_series(n, m):
    """Every residue block alpha carries the (n, 1) series in t^m: the Dyck
    series D_n for the quasi ideal and [n]_t! for the classical one."""
    assert sum(_q_factorial(n)) == factorial(n)
    for ideal, series in [("quasi", list(dyck_series(n).coefficients)),
                          ("classical", _q_factorial(n))]:
        blocks = kernel_dims_by_residue(n, m, ideal)
        assert len(blocks) == m**n
        assert all(max(alpha) < m for alpha in blocks)
        assert all(dims == series for dims in blocks.values()), (ideal, blocks)


def test_kernel_walk_caps_the_first_residue_before_the_others():
    """At n = 300 the zero residue's block at k = 2 exceeds the cap,
    so the 2^300 other residues are never reached."""
    with pytest.raises(ResourceLimitError):
        kernel_dims_by_residue(300, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_three_way_agreement(n, m):
    """Kernel oracle == standard-monomial histogram == closed formula, for
    every degree through one past the top."""
    closed = quotient_series(n, m)
    basis = quasi_ideal_basis(n, m)
    sms = standard_monomials(basis)
    assert series_from_monomials(sms) == closed
    dims = kernel_dims_until_zero(n, m, "quasi")
    assert dims == list(closed.coefficients)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)])
def test_chevalley_dimension_by_kernel(n, m):
    dims = kernel_dims_until_zero(n, m, "classical")
    assert sum(dims) == m**n * factorial(n)
