"""Compositions and quasi-symmetric polynomial generators.

A composition is a tuple of strictly positive integers; the empty
composition () has degree 0.  The composition of an exponent vector is
obtained by erasing its zeros.  A polynomial is quasi-symmetric when its
coefficients are constant on classes of equal composition; the monomial
generators M_alpha (one per composition of length <= n) span that space.

Evaluating any quasi-symmetric polynomial at (x1^m, ..., xn^m) yields a
quasi-invariant for the order-m wreath action, and every quasi-invariant
arises this way; ``quasi_invariant_generators`` enumerates the monomial
family up to a degree cap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

from .polynomials import Polynomial

Composition = tuple  # tuple[int, ...], all entries >= 1


def compositions_of(d: int, max_parts: int) -> list:
    """All compositions of d with at most max_parts parts, lex descending."""
    if d == 0:
        return [()]
    out: list = []

    def rec(prefix, remaining, slots):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for first in range(remaining, 0, -1):
            rec(prefix + [first], remaining - first, slots - 1)

    rec([], d, max_parts)
    return out


def count_compositions(d: int, max_parts: int) -> int:
    """The number of compositions of d into at most max_parts parts, in
    closed form: C(d-1, i-1) compositions of d > 0 have exactly i parts."""
    if d == 0:
        return 1
    return sum(comb(d - 1, i - 1) for i in range(1, min(d, max_parts) + 1))


def vector_to_composition(nu) -> Composition:
    """Erase zeros, keeping the order of the positive entries."""
    return tuple(e for e in nu if e > 0)


def render_composition(alpha) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def parse_composition(text: str) -> Composition:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        return ()
    parts = tuple(int(tok) for tok in s.split(","))
    if any(p < 1 for p in parts):
        raise ValueError(f"composition parts must be positive: {text!r}")
    return parts


def monomial_qsym(alpha, n: int) -> Polynomial:
    """M_alpha in n variables: sum of x_{i1}^{a1}...x_{ik}^{ak} over
    increasing index sequences i1 < ... < ik."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        raise ValueError(f"composition {alpha} has more than {n} parts")
    terms = {}
    for support in combinations(range(n), len(alpha)):
        exps = [0] * n
        for pos, part in zip(support, alpha):
            exps[pos] = part
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)


def _refinements(alpha):
    """All compositions obtained by splitting each part of alpha."""
    per_part = [compositions_of(part, part) for part in alpha]
    for pieces in product(*per_part):
        out = ()
        for piece in pieces:
            out += piece
        yield out


def fundamental_qsym(alpha, n: int) -> Polynomial:
    """F_alpha = sum of M_beta over refinements beta of alpha (length <= n)."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        raise ValueError(f"composition {alpha} has more than {n} parts")
    total = Polynomial.zero(n)
    for beta in sorted(set(_refinements(alpha))):
        if len(beta) <= n:
            total = total + monomial_qsym(beta, n)
    return total


def is_quasi_symmetric(p: Polynomial) -> bool:
    """True iff the coefficient of X^nu depends only on the composition of nu."""
    by_composition: dict = {}
    for exps, coeff in p.terms.items():
        alpha = vector_to_composition(exps)
        by_composition.setdefault(alpha, []).append(coeff)
    for alpha, coeffs in by_composition.items():
        if len(coeffs) != comb(p.nvars, len(alpha)):
            return False
        if any(c != coeffs[0] for c in coeffs[1:]):
            return False
    return True


def quasi_invariant_generators(n: int, m: int, max_deg: int) -> list:
    """The family M_alpha(x1^m, ..., xn^m) for 1 <= m*|alpha| <= max_deg,
    ordered by degree then by composition order."""
    out = []
    d = 1
    while m * d <= max_deg:
        for alpha in compositions_of(d, n):
            out.append(monomial_qsym(alpha, n).substitute_power(m))
        d += 1
    return out


def is_lyndon(alpha) -> bool:
    """True iff alpha is nonempty and lexicographically smaller than each
    of its proper rotations."""
    alpha = tuple(alpha)
    return bool(alpha) and all(alpha < alpha[k:] + alpha[:k] for k in range(1, len(alpha)))


def lyndon_quasi_invariant_generators(n: int, max_deg: int) -> list:
    """The M_alpha with alpha Lyndon and 1 <= |alpha| <= max_deg, in the
    order of ``quasi_invariant_generators(n, 1, max_deg)``.

    They generate the same ideal as that whole family through every degree
    (the argument is in the ``groebner`` module docstring)."""
    return [
        monomial_qsym(alpha, n)
        for d in range(1, max_deg + 1)
        for alpha in compositions_of(d, n)
        if is_lyndon(alpha)
    ]


def elementary_symmetric_power(k: int, n: int, m: int) -> Polynomial:
    """The k-th elementary symmetric polynomial evaluated at (x1^m,...,xn^m)."""
    if not 1 <= k <= n:
        raise ValueError(f"elementary symmetric index {k} out of range 1..{n}")
    terms = {}
    for support in combinations(range(n), k):
        exps = [0] * n
        for pos in support:
            exps[pos] = m
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)
