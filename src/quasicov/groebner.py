"""Degree-truncated Buchberger engine over Q with lexicographic order.

All ideals handled here are homogeneous, which makes degree truncation
sound: an S-polynomial of homogeneous inputs is homogeneous of the degree
of the leading-monomial lcm, so discarding pairs whose lcm degree exceeds
the bound cannot change the initial ideal in degrees up to the bound.  A
basis therefore carries a ``degree_bound`` and its standard monomials are
trusted only through that degree.

The default bound for the quasi-invariant ideal is one more than the top
degree m(n-1) + n(m-1) of its quotient basis, so the empty top degree
certifies that the standard-monomial set is complete.  A stabilization
re-run with an enlarged bound and generator set guards that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import le
import bisect
import heapq

from .polynomials import Polynomial, degree_histogram
from .qsym import elementary_symmetric_power, quasi_invariant_generators


@dataclass(frozen=True)
class GroebnerBasis:
    nvars: int
    generators: tuple  # monic homogeneous Polynomials, descending by leading monomial
    degree_bound: int
    reduced: bool

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial()[0] for g in self.generators)


@dataclass(frozen=True)
class StandardMonomialSet:
    nvars: int
    monomials: tuple  # exponent vectors, graded-lex ordered
    degree_bound: int
    complete: bool

    def degree_histogram(self) -> list:
        return degree_histogram(self.monomials)


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p under multivariate division by the basis elements.

    No monomial of the result is divisible by any basis leading monomial,
    and p minus the result lies in the ideal the basis generates.
    """
    if isinstance(basis, GroebnerBasis):
        divisors = basis.generators
        if p.terms and p.degree() > basis.degree_bound:
            raise ValueError(
                f"degree {p.degree()} exceeds basis bound {basis.degree_bound}"
            )
    else:
        divisors = [g for g in basis if g.terms]
    leads = [(g.leading_monomial(), g) for g in divisors]
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        nu = max(work)
        c = work.pop(nu)
        for (lm, lc), g in leads:
            if all(map(le, lm, nu)):
                factor = c / lc
                for mu, d in g.terms.items():
                    if mu == lm:
                        continue
                    key = tuple(a + b - l for a, b, l in zip(nu, mu, lm))
                    # Unlike Polynomial arithmetic, this loop must drop a
                    # cancelled term at once: it pops max(work), so a stored
                    # zero would be "reduced" and spawn further zeros.
                    value = work.get(key, 0) - factor * d
                    if value:
                        work[key] = value
                    elif key in work:
                        del work[key]
                break
        else:
            remainder[nu] = c
    return Polynomial(p.nvars, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm(LM f, LM g) / LT(f) * f  -  lcm / LT(g) * g; leading terms cancel."""
    if not f.terms or not g.terms:
        raise ValueError("s_polynomial of a zero polynomial")
    lmf, lcf = f.leading_monomial()
    lmg, lcg = g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = Polynomial.monomial(tuple(l - a for l, a in zip(lcm, lmf)), Fraction(1) / lcf)
    mg = Polynomial.monomial(tuple(l - a for l, a in zip(lcm, lmg)), Fraction(1) / lcg)
    return mf * f - mg * g


def _leading(p: Polynomial) -> tuple:
    return p.leading_monomial()[0]


def _autoreduce(polys) -> list:
    """Reduce each polynomial against the others until stable; drops zeros.

    One ascending sweep suffices: a leading monomial divides only monomials
    at least as large, so a polynomial re-inserted at its sorted place can
    make only the ones after it reducible.
    """
    polys = sorted((p.monic() for p in polys if p.terms), key=_leading)
    i = 0
    while i < len(polys):
        r = normal_form(polys.pop(i), polys)
        if r.terms:
            i = bisect.bisect_left(polys, _leading(r), key=_leading)
            polys.insert(i, r.monic())
            i += 1
    return polys


def _validate_generators(generators, degree_bound):
    nvars = None
    polys = []
    for g in generators:
        if not g.terms:
            continue
        if nvars is None:
            nvars = g.nvars
        elif g.nvars != nvars:
            raise ValueError("generators have mixed variable counts")
        if not g.is_homogeneous():
            raise ValueError(f"generator {g} is not homogeneous")
        if any(not isinstance(c, Fraction) for c in g.terms.values()):
            raise ValueError("ideal computations run over the rationals")
        if g.degree() > degree_bound:
            raise ValueError(
                f"generator degree {g.degree()} exceeds bound {degree_bound}"
            )
        polys.append(g)
    return nvars, polys


def buchberger(generators, degree_bound: int, nvars: int | None = None) -> GroebnerBasis:
    """A Groebner basis valid through degree_bound.

    Pair selection follows the normal strategy: minimal lcm degree first,
    ties broken by lex order on the lcm.  Pairs with coprime leading
    monomials are skipped (Buchberger's first criterion); pairs whose lcm
    degree exceeds the bound are discarded, which is sound for homogeneous
    input.
    """
    found_nvars, polys = _validate_generators(generators, degree_bound)
    nvars = found_nvars if found_nvars is not None else nvars
    if nvars is None:
        raise ValueError("cannot infer the variable count of an empty basis")
    basis = _autoreduce(polys)
    heap: list = []

    def push_pairs(j):
        lmj = _leading(basis[j])
        for i in range(j):
            lmi = _leading(basis[i])
            if all(min(a, b) == 0 for a, b in zip(lmi, lmj)):
                continue
            lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
            lcm_deg = sum(lcm)
            if lcm_deg <= degree_bound:
                heapq.heappush(heap, (lcm_deg, lcm, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.terms:
            basis.append(remainder.monic())
            push_pairs(len(basis) - 1)
    ordered = tuple(sorted(basis, key=_leading, reverse=True))
    return GroebnerBasis(nvars, ordered, degree_bound, reduced=False)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced monic basis with the same initial ideal.  An
    element whose leading monomial another divides reduces to zero, since
    the others still form a basis through the bound."""
    reduced = _autoreduce(basis.generators)
    ordered = tuple(sorted(reduced, key=_leading, reverse=True))
    return GroebnerBasis(basis.nvars, ordered, basis.degree_bound, reduced=True)


def reduced_groebner_basis(generators, degree_bound: int, nvars: int | None = None) -> GroebnerBasis:
    return reduce_basis(buchberger(generators, degree_bound, nvars=nvars))


def verify_buchberger_criterion(basis: GroebnerBasis) -> bool:
    """Post-hoc self-test: every in-bound S-polynomial reduces to zero."""
    gens = basis.generators
    lms = basis.leading_monomials()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
            if sum(lcm) > basis.degree_bound:
                continue
            if normal_form(s_polynomial(gens[i], gens[j]), basis).terms:
                return False
    return True


def standard_monomials(basis: GroebnerBasis, through_degree: int) -> StandardMonomialSet:
    """Monomials of degree <= through_degree divisible by no basis leading
    monomial, in (degree, lex) order.

    They form an order ideal, grown here degree by degree.  A monomial c is
    standard iff it is not itself a leading monomial and every lower
    neighbour c - e_i (c_i > 0) is standard: a leading monomial lm that
    divides c with lm != c has lm_i < c_i for some i, so it divides
    c - e_i, which then is not standard.  Each c of degree d + 1 is made
    once, from c - e_j with j its last nonzero index, and kept iff the
    test above holds against degree d.  Work is bounded by nvars times the
    number of standard monomials.

    The set is complete when the top degree contributes nothing: an empty
    degree stays empty above, so the search may stop at the first one.
    """
    if through_degree > basis.degree_bound:
        raise ValueError(
            f"through_degree {through_degree} exceeds basis bound {basis.degree_bound}"
        )
    n = basis.nvars
    lms = set(basis.leading_monomials())
    layer = [] if (0,) * n in lms else [(0,) * n]
    found = list(layer)
    for _ in range(through_degree):
        if not layer:
            break
        below = set(layer)
        children = []
        for nu in layer:
            last = max((i for i, e in enumerate(nu) if e), default=0)
            for j in range(last, n):
                child = nu[:j] + (nu[j] + 1,) + nu[j + 1:]
                # child - e_j is nu, and child has no nonzero index past j.
                if child not in lms and all(
                    child[:i] + (child[i] - 1,) + child[i + 1:] in below
                    for i in range(j)
                    if child[i]
                ):
                    children.append(child)
        children.sort()
        found.extend(children)
        layer = children
    return StandardMonomialSet(n, tuple(found), through_degree, complete=not layer)


def substitute_basis_power(basis: GroebnerBasis, m: int) -> GroebnerBasis:
    """Map every element through x_i -> x_i^m and scale the degree bound."""
    if m < 1:
        raise ValueError(f"power substitution needs m >= 1, got {m}")
    generators = tuple(g.substitute_power(m) for g in basis.generators)
    return GroebnerBasis(basis.nvars, generators, basis.degree_bound * m, basis.reduced)


# ---- the quasi-invariant and classical-invariant ideals -----------------

def default_degree_bound(n: int, m: int) -> int:
    """One more than the top degree m(n-1) + n(m-1) of the quotient basis."""
    return 2 * m * n - m - n + 1


def classical_degree_bound(n: int, m: int) -> int:
    """One more than the top coinvariant degree m*n(n+1)/2 - n."""
    return m * n * (n + 1) // 2 - n + 1


@lru_cache(maxsize=None)
def quasi_ideal_basis(n: int, m: int, degree_bound: int | None = None) -> GroebnerBasis:
    """Reduced basis of the ideal generated by quasi-invariants with no
    constant term, valid through the bound."""
    if degree_bound is None:
        return quasi_ideal_basis(n, m, default_degree_bound(n, m))
    gens = quasi_invariant_generators(n, m, degree_bound)
    return reduced_groebner_basis(gens, degree_bound, nvars=n)


@lru_cache(maxsize=None)
def classical_ideal_basis(n: int, m: int, degree_bound: int | None = None) -> GroebnerBasis:
    """Reduced basis of the ideal generated by the elementary symmetric
    polynomials evaluated at (x1^m, ..., xn^m)."""
    if degree_bound is None:
        return classical_ideal_basis(n, m, classical_degree_bound(n, m))
    gens = [elementary_symmetric_power(k, n, m) for k in range(1, n + 1)]
    return reduced_groebner_basis(gens, degree_bound, nvars=n)


def stabilization_check(n: int, m: int) -> bool:
    """Re-run the quasi ideal with the bound enlarged by m and an enlarged
    generator set; the standard-monomial set must not change."""
    bound = default_degree_bound(n, m)
    first = standard_monomials(quasi_ideal_basis(n, m), bound)
    enlarged = quasi_ideal_basis(n, m, bound + m)
    second = standard_monomials(enlarged, bound + m)
    return (
        first.complete
        and second.complete
        and first.monomials == second.monomials
    )
