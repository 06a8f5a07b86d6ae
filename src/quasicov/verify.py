"""Named verification suites with machine-readable pass/fail checks.

Each suite takes (n, m) and the resource cap, which ``ppp`` does not
use, and returns a list of check dicts {"name", "expected", "actual",
"pass"}; a suite passes when every check does.  All suites are
deterministic: random sampling is done with a fixed seed.
"""

from __future__ import annotations

import random
from math import factorial

from .errors import ResourceLimitError, count_text
from .group import (
    _classical_image,
    _quasi_image,
    enumerate_group,
    fixed_space_dimension,
    group_mul,
)
from .groebner import (
    classical_ideal_basis,
    direct_quasi_ideal_basis,
    quasi_ideal_basis,
    standard_monomials,
    substitute_basis_power,
)
from .hilbert import (
    kernel_dims_until_zero,
    quotient_series,
    series_from_monomials,
    single_prefactor_series,
)
from .paths import catalan, quotient_basis
from .polynomials import render_polynomial
from .qsym import count_compositions

ACTION_SEED = 20260808
MIN_MONOMIALS = 100
PROPU_MAX_DEGREE = 6

# The differential-kernel oracle is the expensive route; it is exercised in
# the verified regime only.
_KERNEL_LIMIT = 3


def _check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}


def suite_propu(n, m, *, max_kernel_entries):
    """Quasi-invariant dimensions by degree: the degree-d fixed space has one
    dimension per composition of d/m into at most n parts, none when m
    does not divide d."""
    checks = []
    for d in range(PROPU_MAX_DEGREE + 1):
        expected = count_compositions(d // m, n) if d % m == 0 else 0
        actual = fixed_space_dimension(n, m, d, "quasi", max_entries=max_kernel_entries)
        checks.append(_check(f"quasi_fixed_space_dim_degree_{d}", expected, actual))
    return checks


def suite_ppp(n, m, *, max_kernel_entries):
    """Power substitution commutes with reduced-basis extraction: the m = 1
    basis under x_i -> x_i^m equals Buchberger on the (n, m) generators."""
    substituted = substitute_basis_power(quasi_ideal_basis(n, 1), m)
    direct = direct_quasi_ideal_basis(n, m)
    return [
        _check(
            "substituted_basis_equals_direct_basis",
            [render_polynomial(g) for g in direct.generators],
            [render_polynomial(g) for g in substituted.generators],
        )
    ]


def suite_main(n, m, *, max_kernel_entries):
    """Quotient dimension m^n * catalan(n) by every available route."""
    target = m**n * catalan(n)
    vectors = quotient_basis(n, m, max_entries=max_kernel_entries)
    sms = standard_monomials(quasi_ideal_basis(n, m))
    checks = [
        _check("standard_monomials_complete", True, sms.complete),
        _check("groebner_route_dimension", target, len(sms.monomials)),
        _check("path_basis_route_dimension", target, len(vectors)),
        _check("groebner_route_equals_path_basis", True, list(sms.monomials) == vectors),
    ]
    if n <= _KERNEL_LIMIT and m <= _KERNEL_LIMIT:
        dims = kernel_dims_until_zero(n, m, "quasi", max_entries=max_kernel_entries)
        checks.append(_check("kernel_oracle_route_dimension", target, sum(dims)))
    return checks


def suite_hilbert(n, m, *, max_kernel_entries):
    """Graded dimensions: standard monomials vs closed series vs kernel
    oracle, plus the flagged single-prefactor variant."""
    sms = standard_monomials(quasi_ideal_basis(n, m))
    series = series_from_monomials(sms)
    closed = quotient_series(n, m)
    checks = [
        _check(
            "standard_monomial_series_equals_closed_series",
            list(closed.coefficients),
            list(series.coefficients),
        )
    ]
    if n <= _KERNEL_LIMIT and m <= _KERNEL_LIMIT:
        dims = kernel_dims_until_zero(n, m, "quasi", max_entries=max_kernel_entries)
        checks.append(
            _check("kernel_oracle_series", list(closed.coefficients), dims)
        )
    literal = single_prefactor_series(n, m)
    if n >= 2 and m >= 2:
        # The single-prefactor formula totals m * catalan(n); reporting the
        # mismatch is itself part of the contract.
        checks.append(
            _check(
                "single_prefactor_formula_mismatch",
                True,
                list(literal.coefficients) != list(closed.coefficients),
            )
        )
    else:
        checks.append(
            _check(
                "single_prefactor_formula_agrees",
                list(closed.coefficients),
                list(literal.coefficients),
            )
        )
    return checks


def suite_chevalley(n, m, *, max_kernel_entries):
    """The classical quotient has dimension m^n * n!."""
    target = m**n * factorial(n)
    sms = standard_monomials(classical_ideal_basis(n, m))
    checks = [
        _check("classical_standard_monomials_complete", True, sms.complete),
        _check("classical_quotient_dimension", target, len(sms.monomials)),
    ]
    if n <= _KERNEL_LIMIT and m <= _KERNEL_LIMIT:
        dims = kernel_dims_until_zero(n, m, "classical", max_entries=max_kernel_entries)
        checks.append(_check("classical_kernel_oracle_dimension", target, sum(dims)))
    return checks


def suite_action_axioms(n, m, *, max_kernel_entries):
    """(gh) acts as g after h, for both actions, over the whole group; the
    weight is multiplicative; at least MIN_MONOMIALS distinct random
    monomials are exercised.  The |G|^2 pairs count against the cap.

    Everything is checked in integers.  On a monomial either action gives
    one monomial times a power of zeta: ``quasi_act`` and ``classical_act``
    extend the image functions linearly, so g . x^nu = zeta^a * x^mu with
    (mu, a) = image(g, nu).  Hence g . (h . x^nu) = zeta^(a+b) * x^lam with
    (mu, a) = image(h, nu) and (lam, b) = image(g, mu).  Monomials are a
    basis over Q(zeta_m) and zeta has order exactly m in Q[z]/Phi_m, so
    (gh) . x^nu equals it iff image(gh, nu) == (lam, (a + b) % m): the same
    predicate as comparing the polynomials, pair by pair.  Likewise the
    weight zeta^(sum of weights) is multiplicative iff the weight sums add
    mod m.
    """
    pairs = (m**n * factorial(n)) ** 2
    if pairs > max_kernel_entries:
        raise ResourceLimitError(
            f"action axioms for n={n}, m={m} need {count_text(pairs)} element pairs, "
            f"exceeding cap of {max_kernel_entries}"
        )
    elements = enumerate_group(n, m)
    rng = random.Random(ACTION_SEED)
    # exponent range wide enough that MIN_MONOMIALS distinct monomials exist
    upper = 5
    while upper**n < 2 * MIN_MONOMIALS:
        upper += 1
    quasi_failures = 0
    classical_failures = 0
    weight_failures = 0
    monomials_seen = set()

    def composes(image, g, h, gh, nu):
        mu, a = image(h, nu)
        lam, b = image(g, mu)
        return image(gh, nu) == (lam, (a + b) % m)

    def run_trial(g, h):
        nonlocal quasi_failures, classical_failures, weight_failures
        nu = tuple(rng.randrange(upper) for _ in range(n))
        monomials_seen.add(nu)
        gh = group_mul(g, h)
        if not composes(_quasi_image, g, h, gh, nu):
            quasi_failures += 1
        if not composes(_classical_image, g, h, gh, nu):
            classical_failures += 1
        if sum(gh.weights) % m != (sum(g.weights) + sum(h.weights)) % m:
            weight_failures += 1

    for g in elements:
        for h in elements:
            run_trial(g, h)
    while len(monomials_seen) < MIN_MONOMIALS:
        run_trial(rng.choice(elements), rng.choice(elements))
    return [
        _check("quasi_action_axiom_failures", 0, quasi_failures),
        _check("classical_action_axiom_failures", 0, classical_failures),
        _check("weight_multiplicativity_failures", 0, weight_failures),
        _check("tested_at_least_min_monomials", True, len(monomials_seen) >= MIN_MONOMIALS),
    ]


SUITES = {
    "propu": suite_propu,
    "ppp": suite_ppp,
    "main": suite_main,
    "hilbert": suite_hilbert,
    "chevalley": suite_chevalley,
    "action-axioms": suite_action_axioms,
}


def run_suite(name, n, m, *, max_kernel_entries):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](n, m, max_kernel_entries=max_kernel_entries)
