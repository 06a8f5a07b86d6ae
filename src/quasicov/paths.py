"""Dyck and transdiagonal exponent vectors; the lattice-path quotient basis.

A vector (v1, ..., vn) is Dyck when v1 + ... + vi <= i - 1 for every i,
and transdiagonal otherwise.  (Read as the north/east lattice path
E^v1 N E^v2 N ... E^vn N from the origin, a Dyck vector is one whose path
stays weakly above the diagonal y = x; touching is allowed.)  Dyck vectors
of length n are counted by the Catalan number and have degree at most
n - 1.

``quotient_basis`` expands every Dyck vector by all residue vectors
0 <= alpha_i < m; these m^n * C_n exponent vectors are the standard
monomials of the quasi-invariant ideal.  ``minimal_transdiagonal`` lists
the divisibility-minimal transdiagonal vectors, whose m-fold dilations are
the expected leading monomials of the reduced Groebner basis.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import DEFAULT_MAX_MATRIX_ENTRIES, ResourceLimitError
from .polynomials import exponent_vectors


def is_dyck(nu) -> bool:
    total = 0
    for i, e in enumerate(nu):
        total += e
        if total > i:
            return False
    return True


def _graded_lex_key(nu):
    return (sum(nu), nu)


def enumerate_dyck(n: int) -> list:
    """All Dyck vectors of length n, graded-lex ordered; there are C_n."""
    out: list = []

    def rec(prefix, total):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        for e in range(i - total + 1):
            rec(prefix + [e], total + e)

    rec([], 0)
    out.sort(key=_graded_lex_key)
    return out


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def quotient_basis(n: int, m: int, max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES) -> list:
    """Exponent vectors m*eta + alpha with eta Dyck and 0 <= alpha_i < m,
    graded-lex ordered.  The map (eta, alpha) -> m*eta + alpha is injective
    (alpha is recovered mod m), so the count is m^n * catalan(n), which
    ``max_entries`` caps before anything is enumerated."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    count = m**n * catalan(n)
    if count > max_entries:
        raise ResourceLimitError(
            f"quotient basis for n={n}, m={m} has {count} vectors, "
            f"exceeding cap of {max_entries}"
        )
    vectors = []
    for eta in enumerate_dyck(n):
        for alpha in product(range(m), repeat=n):
            vectors.append(tuple(m * e + a for e, a in zip(eta, alpha)))
    vectors.sort(key=_graded_lex_key)
    return vectors


def minimal_transdiagonal(n: int, max_deg: int) -> list:
    """Transdiagonal vectors of degree <= max_deg none of whose proper
    divisors is transdiagonal, graded-lex ordered.

    Being transdiagonal is upward-closed under divisibility, so minimality
    only needs each one-step-down neighbour to be Dyck.
    """
    out = []
    for d in range(1, max_deg + 1):
        for nu in exponent_vectors(n, d):
            if is_dyck(nu):
                continue
            minimal = True
            for i in range(n):
                if nu[i] == 0:
                    continue
                down = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
                if not is_dyck(down):
                    minimal = False
                    break
            if minimal:
                out.append(nu)
    out.sort(key=_graded_lex_key)
    return out
