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

For m >= 2 the quasi-invariant basis is not computed by Buchberger: it is
the m = 1 basis under x_i -> x_i^m, keeping the elements of degree at most
the bound (H. Hong, "Groebner bases under composition I", J. Symbolic
Comput. 25, 1998).  The (n, m) generators are the (n, 1) generators under
that map, and:

- At m = 1 the default bound is n and the quotient's top degree is n - 1,
  so the leading monomials of degree at most n divide every monomial of
  degree n, hence every monomial of higher degree: the truncated reduced
  basis is the full reduced basis.  So a larger bound at m = 1 takes the
  substitution too, with x -> x^1: the same elements, the bound relabelled.
- x -> x^m multiplies exponents by m, which keeps lex order, so it maps
  leading monomials to leading monomials and keeps divisibility between
  them and the other terms.  Q[x] is free over Q[x^m] on the monomials
  with exponents below m, so the image of a full Groebner basis is a full
  Groebner basis of the extended ideal, reduced when the basis is.
- For a homogeneous ideal, the reduced basis through a bound is the set of
  elements of the full reduced basis of degree at most the bound.

``direct_quasi_ideal_basis`` keeps the Buchberger route on the (n, m)
generators, which the verification suites and tests check the
substitution against.

At m = 1 Buchberger runs on the M_alpha with alpha Lyndon only (alpha
lexicographically smaller than each of its proper rotations): 22 of the 63
generators at n = 6.  QSym over Q is a polynomial algebra on the Lyndon
M_alpha (C. Malvenuto and C. Reutenauer, J. Algebra 177, 1995).  Setting
x_{n+1} = x_{n+2} = ... = 0 maps QSym onto QSym_n and sends M_alpha to 0
when alpha has more than n parts, so the Lyndon M_alpha with at most n
parts generate QSym_n^+ as an algebra.  Every M_beta of degree d is then a
polynomial without constant term in Lyndon M_alpha of degree at most d, so
both families generate the same ideal through every bound.

Buchberger is the graded algorithm for homogeneous input: it treats pairs
and generators degree by degree (``buchberger`` states why that is
complete).  A pair (i, j) with coprime leading monomials is never queued
(Buchberger's first criterion).  A popped pair (i, j) with lcm L is
skipped by the chain criterion (B. Buchberger, EUROSAM 1979; R. Gebauer
and H. M. Moeller, "On an installation of Buchberger's algorithm",
J. Symbolic Comput. 6, 1988) when some k outside {i, j} has lm_k | L and
the pairs (i, k) and (j, k) have already left the queue, popped or never
queued as coprime:

- For monic elements, S(i, j) = (L / lcm(i, k)) S(i, k) -
  (L / lcm(j, k)) S(j, k).  A pair that has left the queue has a standard
  representation below its lcm, so S(i, j) has one below L.
- Out-of-bound pairs cannot matter: lm_k | L implies that lcm(i, k) and
  lcm(j, k) divide L, so their degrees are within the bound.
- Two pairs cannot be skipped on account of each other, since each must
  have left the queue before the other is popped.

Division runs on packed monomials and integer coefficients.  A monomial
is one int of nvars fields of ``bits`` = D.bit_length() bits each, x1 in
the highest field, where D bounds the degree of every divisor and of
every dividend term.  Every divisor is homogeneous.  Then:

- Int order is lex order, and the packed form of nu - lm + mu is the int
  nu - lm + mu.
- If lm divides nu, q = nu - lm borrows nowhere, and the key q + mu of a
  tail term has the degree of nu (mu has that of lm), so no field exceeds
  D < 2^bits and nothing carries.  The dividend need not be homogeneous.
- The divisors whose leading monomials divide nu are found without a scan:
  for each variable v, a table holds at each exponent e the bitmask of the
  divisors whose leading monomial has exponent at most e in v.  The AND of
  the tables at the exponents of nu marks exactly the divisors of nu, and
  its lowest set bit is the first of them in list order.

A divisor is stored as its primitive integer multiple with a positive
leading coefficient lc; a dividend may be any integer multiple.
To cancel a term c, with g = gcd(c, lc) and a = lc / g, the work and the
remainder are scaled by a (only when a != 1) and (c / g) times the divisor
is subtracted.  Scaling by a nonzero constant keeps the support, so each
step pops the same monomial and picks the same first divisor in list order
as division over Fractions; the integer remainder is the Fraction one
times the product of the scales, and ``normal_form`` divides it back out.
The largest remaining key comes from a max-heap.  Each key a step adds,
q + mu with mu < lm, lies below the popped nu, so a popped key never comes
back: a key is pushed once, when it enters the work, and a term that
cancels stays as a zero, skipped when popped.  The nonzero terms are
popped in the order of max(work).

``buchberger`` stays in this packed form and builds its Polynomials once,
at the end; its divisors become the basis's cached ``_divisors``, which
``reduce_basis`` interreduces without packing anything again.  Its
elements are the stored divisors f = (lm, lc, tail), and the S-pair of f_i
and f_j with packed lcm L is

    lc_j x^(L - lm_i) f_i  -  lc_i x^(L - lm_j) f_j,

made by adding the int L - lm to every key; the leading terms cancel.
This is lc_i lc_j times the S-polynomial of the monic elements, so its
division takes the same steps and its remainder is the rational one times
a nonzero integer.  ``_Divisors.append`` divides out the content and the
sign, so the stored element is the same as that of the monic remainder.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add, itemgetter, le, lshift, sub
import heapq

from .linalg import _divide_content
from .polynomials import Polynomial, degree_histogram
from .qsym import (
    elementary_symmetric_power,
    lyndon_quasi_invariant_generators,
    quasi_invariant_generators,
)


class GroebnerBasis(namedtuple("GroebnerBasis", "nvars generators degree_bound reduced")):
    """``generators`` are monic homogeneous Polynomials, descending by
    leading monomial.  Immutable; the instance dict holds only the cached
    ``_divisors``, which ``buchberger`` fills with the divisors of its loop."""

    def __setattr__(self, name, value):
        raise AttributeError("GroebnerBasis values are immutable")

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial()[0] for g in self.generators)

    @cached_property
    def _divisors(self) -> _Divisors:
        """The generators packed for division, made on first use."""
        return _Divisors(self.nvars, self.generators, self.degree_bound)


class StandardMonomialSet(
    namedtuple("StandardMonomialSet", "nvars monomials degree_bound complete")
):
    """``monomials`` are exponent vectors, graded-lex ordered."""

    __slots__ = ()

    def degree_histogram(self) -> list:
        return degree_histogram(self.monomials)


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Remainder of p under multivariate division by the basis elements.

    No monomial of the result is divisible by any basis leading monomial,
    and p minus the result lies in the ideal the basis generates.  Each
    step reduces the largest remaining monomial by the first divisor, in
    list order, whose leading monomial divides it.  A basis from
    ``buchberger`` divides in the order its elements were found, not in
    generator order; the remainder through its bound is the same, since it
    is unique for a Groebner basis.
    """
    if p.terms and p.degree() > basis.degree_bound:
        raise ValueError(f"degree {p.degree()} exceeds basis bound {basis.degree_bound}")
    return basis._divisors.normal_form(p)


class _Divisors:
    """Homogeneous divisors in list order, packed (module docstring), and
    only ever appended.

    A divisor is stored as (lm, lc, tail): the leading monomial and
    coefficient (lc > 0) of its primitive integer multiple, and its other
    terms as (monomial, coefficient) pairs.  ``index[v][e]`` has bit i set
    iff the leading monomial of divisor i has exponent at most e in
    variable v; an exponent past the end of the table admits every
    divisor.  Zero polynomials are left out.
    """

    def __init__(self, nvars: int, polys=(), degree: int = 0):
        polys = [g for g in polys if g.terms]
        self.nvars = nvars
        self.degree = max([degree, *(g.degree() for g in polys)])
        self.bits = max(self.degree.bit_length(), 1)
        self.shifts = [self.bits * (nvars - 1 - v) for v in range(nvars)]
        self.packed: list = []
        self.index = [[0] for _ in range(nvars)]
        for g in polys:
            self.append(self.divisor_terms(g))

    def _key(self, nu) -> int:
        return sum(map(lshift, nu, self.shifts))

    def _exponents(self, key: int) -> tuple:
        mask = (1 << self.bits) - 1
        return tuple([key >> shift & mask for shift in self.shifts])

    def integer_terms(self, p: Polynomial) -> dict:
        """The primitive integer multiple of the nonzero p, keyed by packed
        monomial: scaled by the lcm of its denominators, then divided by the
        gcd of its entries."""
        if p.nvars != self.nvars:
            raise ValueError(f"nvars mismatch: {p.nvars} vs {self.nvars}")
        if not all(isinstance(c, Fraction) for c in p.terms.values()):
            raise ValueError("ideal computations run over the rationals")
        if p.degree() > self.degree:
            raise ValueError(f"degree {p.degree()} exceeds packed degree {self.degree}")
        den = lcm(*(c.denominator for c in p.terms.values()))
        key = self._key
        return _divide_content(
            {key(nu): c.numerator * (den // c.denominator) for nu, c in p.terms.items()}
        )

    def divisor_terms(self, g: Polynomial) -> dict:
        """``integer_terms`` of the nonzero g, which must be homogeneous."""
        if not g.is_homogeneous():
            raise ValueError(f"{g} is not homogeneous")
        return self.integer_terms(g)

    def polynomial(self, terms, ratio: Fraction) -> Polynomial:
        """The Polynomial of packed (monomial, integer) ``terms`` times
        ``ratio``; a divisor (lm, lc, tail) is monic as ((lm, lc), *tail)
        times 1 / lc."""
        num, den, exponents = ratio.numerator, ratio.denominator, self._exponents
        return Polynomial(self.nvars, {exponents(k): Fraction(v * num, den) for k, v in terms})

    def append(self, terms: dict):
        """Put the divisor with nonzero homogeneous integer ``terms`` last."""
        terms = _divide_content(terms)
        lm = max(terms)
        sign = -1 if terms[lm] < 0 else 1
        tail = tuple((k, sign * v) for k, v in terms.items() if k != lm)
        bit = 1 << len(self.packed)
        self.packed.append((lm, sign * terms[lm], tail))
        for table, e in zip(self.index, self._exponents(lm)):
            table.extend(table[-1:] * (e + 1 - len(table)))
            for k in range(e, len(table)):
                table[k] |= bit

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The remainder of p, equal to that of division over Fractions."""
        if not p.terms:
            return Polynomial(p.nvars)
        terms = self.integer_terms(p)
        nu, c = next(iter(p.terms.items()))
        ratio = c / terms[self._key(nu)]
        remainder, scale = self.divide(terms)
        return self.polynomial(remainder.items(), ratio / scale)

    def divide(self, work: dict) -> tuple:
        """(R, scale): R / scale is the remainder of ``work``, consumed here.
        Zero values in ``work`` are skipped."""
        mask = (1 << self.bits) - 1
        fields = [(shift, table, len(table)) for shift, table in zip(self.shifts, self.index)]
        packed = self.packed
        everyone = (1 << len(packed)) - 1
        remainder: dict = {}
        scale = 1
        # The keys of work, negated: each is pushed once, when it enters.
        heap = [-k for k in work]
        heapq.heapify(heap)
        push, pop, get = heapq.heappush, heapq.heappop, work.get
        while heap:
            nu = -pop(heap)
            c = work.pop(nu)
            if not c:
                continue
            hits = everyone
            for shift, table, size in fields:
                e = (nu >> shift) & mask
                if e < size:
                    hits &= table[e]
            if not hits:
                remainder[nu] = c
                continue
            # The first divisor in list order whose leading monomial divides nu.
            lm, lc, tail = packed[(hits & -hits).bit_length() - 1]
            q = nu - lm
            g = gcd(c, lc)
            if g != lc:
                a = lc // g
                scale *= a
                for k in work:
                    work[k] *= a
                for k in remainder:
                    remainder[k] *= a
            b = c // g
            for mu, d in tail:
                key = q + mu
                value = get(key)
                if value is None:
                    work[key] = -b * d
                    push(heap, -key)
                else:
                    work[key] = value - b * d
        return remainder, scale


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm(LM f, LM g) / LT(f) * f  -  lcm / LT(g) * g; leading terms cancel."""
    if not f.terms or not g.terms:
        raise ValueError("s_polynomial of a zero polynomial")
    if f.nvars != g.nvars:
        raise ValueError(f"nvars mismatch: {f.nvars} vs {g.nvars}")
    lmf, lcf = f.leading_monomial()
    lmg, lcg = g.leading_monomial()
    lcm = tuple(map(max, lmf, lmg))
    shift = tuple(map(sub, lcm, lmf))
    terms = {tuple(map(add, nu, shift)): c / lcf for nu, c in f.terms.items()}
    shift = tuple(map(sub, lcm, lmg))
    for nu, c in g.terms.items():
        key = tuple(map(add, nu, shift))
        terms[key] = terms.get(key, 0) - c / lcg
    return Polynomial(f.nvars, terms)


def buchberger(generators, degree_bound: int, nvars: int | None = None) -> GroebnerBasis:
    """A Groebner basis valid through degree_bound, built degree by degree.

    For d = 0..degree_bound, the queued pairs of lcm degree d are popped in
    the order (lcm degree, lcm, i, j), then each generator of degree d is
    reduced against the basis so far.  A nonzero remainder joins the basis
    and queues its pairs with the earlier elements.  Pairs with
    coprime leading monomials are never queued (Buchberger's first
    criterion), nor are pairs whose lcm degree exceeds the bound, which is
    sound for homogeneous input.  A popped pair is skipped by the chain
    criterion (module docstring).  This is complete: a remainder's leading
    monomial is divisible by no earlier one, so each pair it queues has lcm
    degree above d, and after degree d every pair and generator of degree
    at most d has been treated.
    """
    polys = [g for g in generators if g.terms]
    nvars = polys[0].nvars if polys else nvars
    if nvars is None:
        raise ValueError("cannot infer the variable count of an empty basis")
    lms: list = []
    divisors = _Divisors(nvars, (), degree_bound)
    # Every generator is checked and packed before the loop, and before its
    # degree indexes by_degree.
    by_degree = [[] for _ in range(degree_bound + 1)]
    for g in polys:
        terms = divisors.divisor_terms(g)
        by_degree[g.degree()].append(terms)
    heap: list = []
    popped: set = set()

    def insert(remainder):
        divisors.append(remainder)
        lmj = divisors._exponents(divisors.packed[-1][0])
        for i, lmi in enumerate(lms):
            lcm_deg = sum(map(max, lmi, lmj))
            if lcm_deg <= degree_bound and any(map(min, lmi, lmj)):
                heapq.heappush(heap, (lcm_deg, tuple(map(max, lmi, lmj)), i, len(lms)))
        lms.append(lmj)

    def left(i, k):
        """Whether the pair (i, k) has left the queue: popped, or coprime."""
        pair = (i, k) if i < k else (k, i)
        return pair in popped or not any(map(min, lms[i], lms[k]))

    def chain(i, j, lcm):
        return any(
            k != i and k != j and all(map(le, lmk, lcm)) and left(i, k) and left(j, k)
            for k, lmk in enumerate(lms)
        )

    for d in range(degree_bound + 1):
        while heap and heap[0][0] == d:
            _, lcm, i, j = heapq.heappop(heap)
            popped.add((i, j))
            if chain(i, j, lcm):
                continue
            remainder = _s_pair_remainder(divisors, i, j, divisors._key(lcm))
            if remainder:
                insert(remainder)
        for terms in by_degree[d]:
            remainder, _ = divisors.divide(terms)
            if remainder:
                insert(remainder)
    ordered = sorted(divisors.packed, key=itemgetter(0), reverse=True)
    generators = tuple(
        divisors.polynomial(((lm, lc), *tail), Fraction(1, lc)) for lm, lc, tail in ordered
    )
    basis = GroebnerBasis(nvars, generators, degree_bound, reduced=False)
    # The cached_property reads the instance dict; __setattr__ raises.
    vars(basis)["_divisors"] = divisors
    return basis


def _s_pair_remainder(divisors: _Divisors, i: int, j: int, lcm: int) -> dict:
    """The integer remainder, up to a nonzero scalar, of the S-pair of
    divisors i and j, whose leading monomials have the packed lcm ``lcm``:
    lc_j x^(lcm - lm_i) f_i - lc_i x^(lcm - lm_j) f_j, leading terms
    cancelled.  Empty when the pair reduces to zero."""
    lmi, lci, taili = divisors.packed[i]
    lmj, lcj, tailj = divisors.packed[j]
    shift = lcm - lmi
    work = {shift + mu: lcj * d for mu, d in taili}
    shift = lcm - lmj
    for mu, d in tailj:
        key = shift + mu
        work[key] = work.get(key, 0) - lci * d
    return divisors.divide(work)[0]


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced monic basis with the same initial ideal, in one
    ascending pass over the packed elements: each is divided by the ones
    already kept.  A leading monomial divides only monomials at least as
    large, so no later element can reduce a kept one.  In a basis through
    the bound the remainder either is zero (the element was redundant) or
    keeps its leading monomial: a lower one would lie in the initial ideal
    and so be divisible by a kept leading monomial.

    The input must be a Groebner basis through its bound; this is not
    checked.  Only a remainder whose leading monomial drops raises
    ``ValueError``, so an inter-reduced basis that is not a Groebner basis
    comes back unchanged, marked ``reduced=True``."""
    divisors = basis._divisors
    reduced = _Divisors(basis.nvars, (), divisors.degree)
    for lm, lc, tail in sorted(divisors.packed, key=itemgetter(0)):
        remainder, _ = reduced.divide(dict(((lm, lc), *tail)))
        if not remainder:
            continue
        if max(remainder) != lm:
            raise ValueError("not a Groebner basis through its degree bound")
        reduced.append(remainder)
    generators = tuple(
        reduced.polynomial(((lm, lc), *tail), Fraction(1, lc))
        for lm, lc, tail in reversed(reduced.packed)
    )
    return GroebnerBasis(basis.nvars, generators, basis.degree_bound, reduced=True)


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


def standard_monomials(basis: GroebnerBasis) -> StandardMonomialSet:
    """Monomials of degree at most the basis's bound divisible by no basis
    leading monomial, in (degree, lex) order.

    They form an order ideal, grown here degree by degree.  A monomial c is
    standard iff it is not itself a leading monomial and every lower
    neighbour c - e_i (c_i > 0) is standard: a leading monomial lm that
    divides c with lm != c has lm_i < c_i for some i, so it divides
    c - e_i, which then is not standard.  Each c of degree d + 1 is made
    once, from c - e_j with j its last nonzero index, and kept iff the
    test above holds against degree d: the standard monomials of degree d
    plus each e_i hit c once per standard lower neighbour, so the test is
    that count against the number of nonzero indices of c.  Work is bounded
    by nvars times the number of standard monomials.

    The search runs on monomials packed into ints in the layout of
    ``_Divisors(nvars, (), degree_bound)``, as ``buchberger`` packs them
    (module docstring), so int order is lex order and adding e_i is adding
    one int.  Exponents never exceed the bound, and leading monomials above
    it cannot match, so leaving them out keeps a hand-built basis from
    overflowing a field.

    The set is complete when the top degree contributes nothing: an empty
    degree stays empty above, so the search may stop at the first one.
    """
    n, bound = basis.nvars, basis.degree_bound
    codec = _Divisors(n, (), bound)
    shifts = codec.shifts
    units = [1 << shift for shift in shifts]
    lms = {codec._key(lm) for lm in basis.leading_monomials() if sum(lm) <= bound}
    # (monomial, its last nonzero index, its number of nonzero indices)
    layer = [] if 0 in lms else [(0, 0, 0)]
    found = [nu for nu, _, _ in layer]
    for _ in range(bound):
        if not layer:
            break
        keys = [nu for nu, _, _ in layer]
        # How many lower neighbours of each next-degree monomial are standard.
        below = Counter()
        for unit in units:
            below.update(map(unit.__add__, keys))
        children = []
        for nu, last, size in layer:
            for j in range(last, n):
                child = nu + units[j]
                grown = size + (j > last or not size)
                if below[child] == grown and child not in lms:
                    children.append((child, j, grown))
        children.sort()
        found.extend(nu for nu, _, _ in children)
        layer = children
    mask = (1 << codec.bits) - 1
    monomials = []
    for nu in found:
        exponents = []
        for shift in shifts:
            exponents.append(nu >> shift & mask)
        monomials.append(tuple(exponents))
    return StandardMonomialSet(n, tuple(monomials), bound, complete=not layer)


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
    constant term, valid through the bound.  At m = 1 and a bound of at
    most n it is computed from the Lyndon generators; otherwise it is
    substituted from the default m = 1 basis (module docstring)."""
    if degree_bound is None:
        return quasi_ideal_basis(n, m, default_degree_bound(n, m))
    if m == 1 and degree_bound <= n:
        gens = lyndon_quasi_invariant_generators(n, degree_bound)
        return reduced_groebner_basis(gens, degree_bound, nvars=n)
    substituted = substitute_basis_power(quasi_ideal_basis(n, 1), m)
    generators = tuple(g for g in substituted.generators if g.degree() <= degree_bound)
    return GroebnerBasis(n, generators, degree_bound, reduced=True)


def direct_quasi_ideal_basis(n: int, m: int, degree_bound: int | None = None) -> GroebnerBasis:
    """The same basis by Buchberger on the (n, m) generators themselves."""
    if degree_bound is None:
        degree_bound = default_degree_bound(n, m)
    gens = quasi_invariant_generators(n, m, degree_bound)
    return reduced_groebner_basis(gens, degree_bound, nvars=n)


@lru_cache(maxsize=None)
def classical_ideal_basis(n: int, m: int) -> GroebnerBasis:
    """Reduced basis of the ideal generated by the elementary symmetric
    polynomials evaluated at (x1^m, ..., xn^m), through one more than the
    top coinvariant degree."""
    gens = [elementary_symmetric_power(k, n, m) for k in range(1, n + 1)]
    return reduced_groebner_basis(gens, classical_degree_bound(n, m), nvars=n)


def stabilization_check(n: int, m: int) -> bool:
    """Re-run the quasi ideal by Buchberger with the bound enlarged by m and
    an enlarged generator set; the standard-monomial set must not change."""
    first = standard_monomials(quasi_ideal_basis(n, m))
    enlarged = direct_quasi_ideal_basis(n, m, default_degree_bound(n, m) + m)
    second = standard_monomials(enlarged)
    return (
        first.complete
        and second.complete
        and first.monomials == second.monomials
    )
