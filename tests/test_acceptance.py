"""Acceptance criteria, one test per criterion.

Arithmetic is exact throughout, so every comparison is strict equality.
Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing run).
"""

import functools
import json
import subprocess
import sys
import time
from math import comb, factorial

from quasicov.errors import DEFAULT_MAX_GROUP_ORDER, DEFAULT_MAX_MATRIX_ENTRIES
from quasicov.group import (
    enumerate_group,
    fixed_space_dimension,
    quasi_act,
    parse_group_element,
)
from quasicov.groebner import (
    direct_quasi_ideal_basis,
    quasi_ideal_basis,
    standard_monomials,
    substitute_basis_power,
)
from quasicov.hilbert import (
    dyck_series,
    kernel_dims_until_zero,
    quotient_series,
    series_from_monomials,
    single_prefactor_series,
)
from quasicov.paths import catalan, enumerate_dyck, quotient_basis
from quasicov.polynomials import Polynomial, parse_polynomial
from quasicov.qsym import count_compositions
from quasicov.scalars import Cyclotomic
from quasicov.verify import suite_action_axioms, suite_chevalley

GRID = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
CAPS = dict(max_group_order=DEFAULT_MAX_GROUP_ORDER, max_kernel_entries=DEFAULT_MAX_MATRIX_ENTRIES)


def acceptance(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return run

    return wrap


def _dimension_formula(n, m):
    return m**n * comb(2 * n, n) // (n + 1)


@acceptance("1 worked-action-example")
def test_criterion_1_worked_action_example():
    start = time.monotonic()
    g = parse_group_element("tau=3,1,2;weights=1,0,1", 3, 3)
    p = parse_polynomial("x1^2*x2", 3)
    image = quasi_act(g, p)
    elapsed = time.monotonic() - start
    j = Cyclotomic.zeta(3)
    assert image == Polynomial(3, {(2, 0, 1): j * j})
    assert image == Polynomial(3, {(2, 0, 1): Cyclotomic(3, (-1, -1))})
    assert str(image) == "(-1-z)*x1^2*x3"
    assert elapsed < 1.0


@acceptance("2 dimension-by-three-routes")
def test_criterion_2_dimension_by_three_routes():
    cases = GRID + [(4, 1), (4, 2)]
    expected_samples = {(3, 1): 5, (3, 2): 40, (3, 3): 135, (4, 2): 224}
    for n, m in cases:
        target = _dimension_formula(n, m)
        if (n, m) in expected_samples:
            assert target == expected_samples[(n, m)]
        basis = quasi_ideal_basis(n, m)
        sms = standard_monomials(basis)
        assert sms.complete
        assert len(sms.monomials) == target, (n, m)
        assert len(quotient_basis(n, m)) == target, (n, m)
        if n <= 3 and m <= 3:
            assert sum(kernel_dims_until_zero(n, m, "quasi")) == target, (n, m)


@acceptance("3 standard-monomials-equal-path-basis")
def test_criterion_3_standard_monomials_equal_path_basis():
    cases = GRID + [(4, 1), (4, 2)]
    for n, m in cases:
        basis = quasi_ideal_basis(n, m)
        sms = standard_monomials(basis)
        assert sms.complete, (n, m)
        assert set(sms.monomials) == set(quotient_basis(n, m)), (n, m)


@acceptance("4 substitution-commutes-with-groebner")
def test_criterion_4_substituted_basis_equals_direct():
    for n, m in GRID:
        substituted = substitute_basis_power(quasi_ideal_basis(n, 1), m)
        direct = direct_quasi_ideal_basis(n, m)
        assert len(substituted.generators) == len(direct.generators), (n, m)
        for left, right in zip(substituted.generators, direct.generators):
            assert left == right, (n, m)


@acceptance("5 closed-series-and-catalan-dimensions")
def test_criterion_5_closed_series_and_catalan():
    for n in range(1, 9):
        series = dyck_series(n)
        histogram = [0] * n
        for nu in enumerate_dyck(n):
            histogram[sum(nu)] += 1
        while histogram and histogram[-1] == 0:
            histogram.pop()
        assert list(series.coefficients) == histogram, n
        assert series.total() == catalan(n), n
    assert [len(enumerate_dyck(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


@acceptance("6 hilbert-agreement-and-flagged-discrepancy")
def test_criterion_6_hilbert_agreement_and_discrepancy():
    for n, m in GRID:
        closed = quotient_series(n, m)
        basis = quasi_ideal_basis(n, m)
        sms = standard_monomials(basis)
        assert series_from_monomials(sms) == closed, (n, m)
        literal = single_prefactor_series(n, m)
        if n >= 2 and m >= 2:
            # the documented mismatch of the single-prefactor formula
            assert literal != closed, (n, m)
            assert literal.total() == m * catalan(n), (n, m)
        else:
            assert literal == closed, (n, m)


@acceptance("7 quasi-invariant-dimensions-by-degree")
def test_criterion_7_fixed_space_dimensions():
    for n, m in GRID:
        for d in range(7):
            expected = count_compositions(d // m, n) if d % m == 0 else 0
            assert fixed_space_dimension(n, m, d, "quasi") == expected, (n, m, d)


@acceptance("8 classical-quotient-dimension")
def test_criterion_8_classical_quotient_dimension():
    expected_samples = {(2, 2): 8, (3, 1): 6}
    for n, m in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]:
        target = m**n * factorial(n)
        if (n, m) in expected_samples:
            assert target == expected_samples[(n, m)]
        checks = suite_chevalley(n, m, **CAPS)
        assert all(c["pass"] for c in checks), (n, m, checks)


@acceptance("9 action-axioms-and-determinism")
def test_criterion_9_action_axioms_and_determinism():
    for n, m in GRID:
        order = m**n * factorial(n)
        assert len(enumerate_group(n, m)) == order
        checks = suite_action_axioms(n, m, **CAPS)
        assert all(c["pass"] for c in checks), (n, m, checks)
        # >= 100 distinct random monomials were exercised per group
        assert checks[-1]["name"] == "tested_at_least_min_monomials"
    argv = [
        sys.executable, "-m", "quasicov",
        "verify", "--suite", "action-axioms", "--n", "2", "--m", "3", "--json",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=300)
    second = subprocess.run(argv, capture_output=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["result"]["status"] == "pass"
