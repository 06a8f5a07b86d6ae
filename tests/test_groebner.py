"""The truncated Buchberger engine and the quasi-invariant ideal."""

import bisect
import heapq
import random
from fractions import Fraction
from functools import partial
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from quasicov import cli, groebner
from quasicov.groebner import (
    GroebnerBasis,
    StandardMonomialSet,
    buchberger,
    classical_degree_bound,
    classical_ideal_basis,
    default_degree_bound,
    direct_quasi_ideal_basis,
    normal_form,
    quasi_ideal_basis,
    reduce_basis,
    reduced_groebner_basis,
    s_polynomial,
    stabilization_check,
    standard_monomials,
    substitute_basis_power,
    verify_buchberger_criterion,
)
from quasicov.paths import catalan, minimal_transdiagonal, quotient_basis
from quasicov.polynomials import (
    Polynomial,
    exponent_vectors,
    parse_polynomial,
    promote_to_cyclotomic,
)
from quasicov.qsym import quasi_invariant_generators


def P(text, nvars):
    return parse_polynomial(text, nvars)


def _monic(p):
    """p scaled by the inverse of its leading coefficient (a Fraction)."""
    return p * Fraction(1, p.leading_monomial()[1])


def _basis(polys, bound):
    ordered = tuple(sorted(polys, key=lambda g: g.leading_monomial()[0], reverse=True))
    return GroebnerBasis(polys[0].nvars, ordered, bound, reduced=True)


def test_normal_form_examples():
    basis = _basis([P("x1 + x2", 2), P("x2^2", 2)], 5)
    assert normal_form(P("x1^2", 2), basis).is_zero()
    assert normal_form(P("x2", 2), basis) == P("x2", 2)
    assert normal_form(P("x1 + x2", 2), basis).is_zero()


def test_normal_form_degree_bound():
    basis = _basis([P("x1", 2)], 3)
    with pytest.raises(ValueError):
        normal_form(P("x1^4", 2), basis)


def test_normal_form_is_irreducible_and_congruent():
    basis = _basis([P("x1 + x2", 2), P("x2^2", 2)], 8)
    rng = random.Random(21)
    lms = [g.leading_monomial()[0] for g in basis.generators]
    for _ in range(40):
        terms = {
            tuple(rng.randrange(4) for _ in range(2)): Fraction(rng.randint(-3, 3))
            for _ in range(4)
        }
        p = Polynomial(2, terms)
        r = normal_form(p, basis)
        for nu in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, nu)) for lm in lms)
        # p - r reduces to zero, i.e. lies in the ideal
        assert normal_form(p - r, basis).is_zero()


def test_normal_form_reduces_by_the_first_divisor_in_list_order():
    # Not a Groebner basis: both leading monomials divide p, and the two
    # orders leave different remainders.
    f, g = P("x1^2 + x2^2", 2), P("x1*x2", 2)
    p = P("x1^2*x2", 2)
    assert normal_form(p, [f, g]) == P("-x2^3", 2)
    assert normal_form(p, GroebnerBasis(2, (f, g), 3, reduced=False)) == P("-x2^3", 2)
    assert normal_form(p, [g, f]).is_zero()


def _fraction_normal_form(p, basis):
    """Reference division over Fractions on exponent tuples: the largest
    monomial is reduced by the first divisor in list order that divides it."""
    if isinstance(basis, GroebnerBasis):
        divisors = basis.generators
    else:
        divisors = [g for g in basis if g.terms]
    leads = [(g.leading_monomial(), g) for g in divisors]
    work = dict(p.terms)
    remainder = {}
    while work:
        nu = max(work)
        c = work.pop(nu)
        for (lm, lc), g in leads:
            if all(a <= b for a, b in zip(lm, nu)):
                factor = c / lc
                for mu, d in g.terms.items():
                    if mu != lm:
                        key = tuple(a + b - l for a, b, l in zip(nu, mu, lm))
                        value = work.get(key, 0) - factor * d
                        if value:
                            work[key] = value
                        else:
                            del work[key]
                break
        else:
            remainder[nu] = c
    return Polynomial(p.nvars, remainder)


_coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


def _polynomials(n, max_terms):
    """Rational polynomials in n variables: negative and fractional
    coefficients, not monic and not homogeneous."""
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(monomial, _coefficients, min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(n, terms)
    )


def _homogeneous_polynomials(n, max_terms, max_degree=6, coefficients=_coefficients):
    """As ``_polynomials``, but every term of one drawn degree 1..max_degree."""

    def of_degree(d):
        monomial = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
            lambda variables: tuple(variables.count(v) for v in range(n))
        )
        return st.dictionaries(monomial, coefficients, min_size=1, max_size=max_terms)

    return st.integers(1, max_degree).flatmap(of_degree).map(lambda terms: Polynomial(n, terms))


@settings(max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            _polynomials(n, 6), st.lists(_homogeneous_polynomials(n, 4), max_size=4)
        )
    )
)
def test_normal_form_matches_fraction_division(drawn):
    p, divisors = drawn
    expected = _fraction_normal_form(p, divisors)
    assert normal_form(p, divisors) == expected
    bound = max(g.degree() for g in [p, *divisors])
    basis = GroebnerBasis(p.nvars, tuple(divisors), bound, reduced=False)
    assert normal_form(p, basis) == expected


@pytest.mark.parametrize("D", [7, 8, 15, 16])
def test_normal_form_at_the_packed_width_boundary(D):
    # Fields are D.bit_length() bits wide, so an exponent of D fits; fields
    # of (D - 1).bit_length() bits would carry into the next variable at
    # D = 8 and 16.
    f = P(f"x1^{D - 1}*x2 - x2^{D} + 3*x3^{D}", 3)
    g = P(f"x2^{D - 1}*x3 + 2*x3^{D}", 3)
    p = P(f"x1^{D} + 5*x1^{D - 1}*x2 + x2^{D} - x3^{D} + x1*x2", 3)
    expected = _fraction_normal_form(p, [f, g])
    assert (D, 0, 0) in expected.terms and (0, 0, D) in expected.terms
    assert normal_form(p, [f, g]) == expected
    assert normal_form(p, GroebnerBasis(3, (f, g), D, reduced=False)) == expected


def test_normal_form_of_a_list_packs_for_the_dividend_degree():
    # Every divisor has degree at most 2, whose fields would hold only 3.
    p = P("x1^9*x2^3 + 7*x2^12 - x1^5*x3^2", 3)
    divisors = [P("x1*x2 - x3^2", 3), P("x2^2 + x1*x3", 3)]
    expected = _fraction_normal_form(p, divisors)
    assert max(map(max, expected.terms)) > 3
    assert normal_form(p, divisors) == expected
    with pytest.raises(ValueError, match="exceeds packed degree"):
        groebner._Divisors(3, divisors).normal_form(p)


def test_normal_form_rejects_inhomogeneous_divisors():
    # Reducing x1^5 by x1 - x2^7 would reach x2^35, past any width the
    # degree 7 of the input fixes.
    f = P("x1 - x2^7", 2)
    with pytest.raises(ValueError, match="not homogeneous"):
        normal_form(P("x1^5", 2), [f])
    with pytest.raises(ValueError, match="not homogeneous"):
        normal_form(P("x1^5", 2), GroebnerBasis(2, (f,), 7, reduced=False))
    with pytest.raises(ValueError, match="not homogeneous"):
        reduce_basis(GroebnerBasis(2, (f,), 7, reduced=False))


def test_normal_form_rejects_cyclotomic_coefficients():
    f = P("x1 + x2", 2)
    z = promote_to_cyclotomic(f, 3)
    for p, basis in [(z, [f]), (f, [z]), (z, _basis([f], 2)), (f, _basis([z], 2))]:
        with pytest.raises(ValueError, match="ideal computations run over the rationals"):
            normal_form(p, basis)


def test_normal_form_rejects_mixed_variable_counts():
    with pytest.raises(ValueError):
        normal_form(P("x1^2", 2), [P("x1", 1)])
    with pytest.raises(ValueError):
        normal_form(P("x1^2", 1), _basis([P("x1", 2)], 3))


def test_s_polynomial():
    f, g = P("x1 + x2", 2), P("x2^2", 2)
    assert s_polynomial(f, g) == P("x2^3", 2)
    assert s_polynomial(f, f).is_zero()
    with pytest.raises(ValueError):
        s_polynomial(f, Polynomial.zero(2))


def test_coprime_leading_monomials_reduce_to_zero():
    f, g = P("x1^2", 2), P("x2^2", 2)
    assert normal_form(s_polynomial(f, g), _basis([f, g], 6)).is_zero()


def test_buchberger_examples():
    gens1 = quasi_invariant_generators(1, 1, 2)
    assert reduced_groebner_basis(gens1, 2).leading_monomials() == ((1,),)

    gens2 = quasi_invariant_generators(2, 1, 4)
    gb2 = reduced_groebner_basis(gens2, 4)
    assert [str(g) for g in gb2.generators] == ["x1 + x2", "x2^2"]

    gens22 = quasi_invariant_generators(2, 2, 8)
    gb22 = reduced_groebner_basis(gens22, 8)
    assert [str(g) for g in gb22.generators] == ["x1^2 + x2^2", "x2^4"]


def test_buchberger_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        buchberger([P("x1 + 1", 1)], 3)
    # x1 reduces x1 + x1^2 to x1^2: every input is checked before the loop.
    with pytest.raises(ValueError, match="not homogeneous"):
        buchberger([P("x1", 1), P("x1 + x1^2", 1)], 3)


def test_buchberger_rejects_generators_past_the_bound():
    # Checked before the generator's degree picks its slot in the loop.
    with pytest.raises(ValueError, match="exceeds packed degree"):
        buchberger([P("x1^2", 2), P("x1^4 + x2^4", 2)], 3)


def test_buchberger_rejects_cyclotomic_coefficients():
    with pytest.raises(ValueError):
        buchberger([promote_to_cyclotomic(P("x1 + x2", 2), 3)], 3)
    with pytest.raises(ValueError, match="over the rationals"):
        buchberger([P("x1", 2), promote_to_cyclotomic(P("x1*x2", 2), 3)], 3)


def test_reduce_basis():
    raw = buchberger([P("x1 + x2", 2), P("x1^2 + x2^2", 2), P("x1*x2", 2)], 4)
    reduced = reduce_basis(raw)
    assert [str(g) for g in reduced.generators] == ["x1 + x2", "x2^2"]
    assert reduce_basis(reduced).generators == reduced.generators
    only_x1 = reduce_basis(buchberger([P("x1", 2), P("x1^2", 2)], 3))
    assert [str(g) for g in only_x1.generators] == ["x1"]
    # Non-minimal bases: interreduction sends the redundant elements to zero.
    redundant = GroebnerBasis(2, (P("x1*x2 + x2^2", 2), P("x1", 2), P("x2^2", 2)), 2, False)
    assert [str(g) for g in reduce_basis(redundant).generators] == ["x1", "x2^2"]
    tied = GroebnerBasis(2, (P("x1 + x2", 2), P("x1 - x2", 2), P("x2", 2)), 1, False)
    assert [str(g) for g in reduce_basis(tied).generators] == ["x1", "x2"]


def test_reduce_basis_rejects_a_basis_that_is_not_groebner_through_its_bound():
    # x1^2 + x1*x2 reduces to -x2^2, which no leading monomial divides.
    gens = (P("x1^2 + x2^2", 2), P("x1^2 + x1*x2", 2), P("x1*x2", 2))
    with pytest.raises(ValueError, match="not a Groebner basis through its degree bound"):
        reduce_basis(GroebnerBasis(2, gens, 2, False))


def test_reduce_basis_takes_the_packed_elements_of_buchberger(monkeypatch):
    bound = default_degree_bound(4, 1)
    basis = buchberger(quasi_invariant_generators(4, 1, bound), bound)
    calls = []
    integer_terms = groebner._Divisors.integer_terms

    def counted_integer_terms(self, p):
        calls.append(p)
        return integer_terms(self, p)

    monkeypatch.setattr(groebner._Divisors, "integer_terms", counted_integer_terms)
    reduced = reduce_basis(basis)
    assert calls == []
    # The same tuple without the cached divisors packs every generator.
    assert reduce_basis(GroebnerBasis(*basis)) == reduced
    assert len(calls) == len(basis.generators)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(_homogeneous_polynomials(n, 4, 4), max_size=8),
            st.tuples(*[st.integers(0, 5)] * n),
        )
    )
)
def test_divisor_index_marks_the_divisors_of_a_monomial(drawn):
    polys, nu = drawn
    divisors = groebner._Divisors(len(nu), (), 4)
    for g in polys:
        divisors.append(divisors.divisor_terms(g))
    lms = [divisors._exponents(lm) for lm, _, _ in divisors.packed]
    everyone = (1 << len(lms)) - 1
    for v, table in enumerate(divisors.index):
        for e, bits in enumerate(table):
            assert bits == sum(1 << i for i, lm in enumerate(lms) if lm[v] <= e)
        assert table[-1] == everyone
    hits = everyone
    for table, e in zip(divisors.index, nu):
        if e < len(table):
            hits &= table[e]
    assert hits == sum(1 << i for i, lm in enumerate(lms) if all(map(le, lm, nu)))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(_homogeneous_polynomials(n, 4, 3, _small_integers), min_size=1, max_size=4),
            _polynomials(n, 6),
        )
    )
)
# x2 is packed before x1^2, the reverse of the generator order.
@example(([P("x2", 2), P("x1^2 + x1*x2", 2)], P("x1^3 + 2*x1^2*x2 - x2^2 + x1", 2)))
def test_normal_form_by_a_buchberger_basis_ignores_its_insertion_order(drawn):
    gens, p = drawn
    bound = max(g.degree() for g in gens) + 2
    p = Polynomial(p.nvars, {nu: c for nu, c in p.terms.items() if sum(nu) <= bound})
    basis = buchberger(gens, bound)
    assert normal_form(p, basis) == normal_form(p, list(basis.generators))


def _restart_autoreduce(polys):
    """Reference interreduction: restart from the first polynomial after
    every change."""
    polys = [_monic(p) for p in polys if p.terms]
    changed = True
    while changed:
        changed = False
        polys.sort(key=lambda q: q.leading_monomial()[0])
        for i in range(len(polys)):
            rest = polys[:i] + polys[i + 1:]
            r = normal_form(polys[i], rest)
            if r == polys[i]:
                continue
            changed = True
            if r.terms:
                polys[i] = _monic(r)
            else:
                polys.pop(i)
            break
    return polys


def test_autoreduce_matches_restart_loop():
    pairs = [(n, m) for n in range(1, 5) for m in range(1, 4)] + [(5, 1)]
    bounds = [default_degree_bound(n, m) for n, m in pairs]
    inputs = [(quasi_invariant_generators(*pair, d), d) for pair, d in zip(pairs, bounds)]
    bound = default_degree_bound(3, 1)
    gens = quasi_invariant_generators(3, 1, bound)
    rng = random.Random(13)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        inputs.append(([g * Fraction(rng.randint(1, 5)) for g in shuffled], bound))
    inputs.append(([P("x1^2 + x2^2", 2), P("x1^2 + x1*x2", 2), P("x1*x2", 2)], 2))
    for polys, bound in inputs:
        basis = buchberger(polys, bound)
        expected = [str(g) for g in _restart_autoreduce(basis.generators)]
        assert [str(g) for g in reversed(reduce_basis(basis).generators)] == expected


def _fraction_autoreduce(polys):
    """Reference interreduction: re-insert each remainder at its sorted
    place, over ``_fraction_normal_form``."""
    polys = sorted((_monic(p) for p in polys if p.terms), key=lambda q: q.leading_monomial()[0])
    i = 0
    while i < len(polys):
        r = _fraction_normal_form(polys.pop(i), polys)
        if r.terms:
            lead = r.leading_monomial()[0]
            i = bisect.bisect_left(polys, lead, key=lambda q: q.leading_monomial()[0])
            polys.insert(i, _monic(r))
            i += 1
    return polys


def _graded_reference(generators, degree_bound):
    """Reference copy of the graded loop at the Polynomial level: the same
    pair order and chain criterion as ``buchberger``, with S-pairs from
    ``s_polynomial``, remainders from ``_fraction_normal_form`` and monic
    basis elements."""
    polys = [g for g in generators if g.terms]
    by_degree = [[] for _ in range(degree_bound + 1)]
    for g in polys:
        by_degree[g.degree()].append(g)
    basis, lms, heap, popped = [], [], [], set()

    def coprime(a, b):
        return not any(min(x, y) for x, y in zip(a, b))

    def insert(remainder):
        basis.append(_monic(remainder))
        lmj = remainder.leading_monomial()[0]
        for i, lmi in enumerate(lms):
            lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
            if not coprime(lmi, lmj) and sum(lcm) <= degree_bound:
                heapq.heappush(heap, (sum(lcm), lcm, i, len(lms)))
        lms.append(lmj)

    def left(i, k):
        return (min(i, k), max(i, k)) in popped or coprime(lms[i], lms[k])

    for d in range(degree_bound + 1):
        while heap and heap[0][0] == d:
            _, lcm, i, j = heapq.heappop(heap)
            popped.add((i, j))
            if any(
                k not in (i, j)
                and all(a <= b for a, b in zip(lmk, lcm))
                and left(i, k)
                and left(j, k)
                for k, lmk in enumerate(lms)
            ):
                continue
            remainder = _fraction_normal_form(s_polynomial(basis[i], basis[j]), basis)
            if remainder.terms:
                insert(remainder)
        for g in by_degree[d]:
            remainder = _fraction_normal_form(g, basis)
            if remainder.terms:
                insert(remainder)
    ordered = tuple(sorted(basis, key=lambda g: g.leading_monomial()[0], reverse=True))
    return GroebnerBasis(polys[0].nvars, ordered, degree_bound, reduced=False)


def _fraction_reduced_basis(generators, degree_bound):
    """``reduced_groebner_basis`` with no packed division anywhere."""
    basis = _graded_reference(generators, degree_bound)
    reduced = tuple(reversed(_fraction_autoreduce(basis.generators)))
    return GroebnerBasis(basis.nvars, reduced, degree_bound, reduced=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_engine_matches_fraction_division(n, m):
    bound = default_degree_bound(n, m)
    gens = quasi_invariant_generators(n, m, bound)
    basis = buchberger(gens, bound)
    expected = tuple(reversed(_fraction_autoreduce(basis.generators)))
    assert reduce_basis(basis).generators == expected
    assert basis == _graded_reference(gens, bound)
    assert reduced_groebner_basis(gens, bound) == _fraction_reduced_basis(gens, bound)


# Small integer ideals: n <= 3, degree <= 3, coefficients in -3..3.
_small_integers = st.integers(-3, 3).filter(bool).map(Fraction)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            _homogeneous_polynomials(n, 4, 3, _small_integers), min_size=1, max_size=4
        )
    )
)
# An S-pair of elements with different leading coefficients and a remainder
# of two terms: it tells lc_j f_i - lc_i f_j from other scalings.
@example([P("x1^2*x2 + 2*x2^3", 2), P("-3*x1^3 + x1^2*x2", 2)])
def test_packed_loop_matches_the_graded_reference_on_integer_ideals(gens):
    bound = max(g.degree() for g in gens) + 2
    basis = buchberger(gens, bound)
    assert basis == _graded_reference(gens, bound)
    reduced = reduce_basis(basis)
    assert reduced == _fraction_reduced_basis(gens, bound)
    assert verify_buchberger_criterion(basis)
    assert verify_buchberger_criterion(reduced)


def _spair_counts(run, monkeypatch):
    """Generators in, S-pairs reduced and S-pairs reduced to zero while
    ``run()`` runs, counted at ``buchberger`` and at its S-pair step
    ``_s_pair_remainder``, which returns an empty remainder for a pair
    that reduced to zero."""
    counts = [0, 0, 0]
    buchberger_, s_pair_remainder_ = groebner.buchberger, groebner._s_pair_remainder

    def counted_buchberger(generators, *args, **kwargs):
        counts[0] += sum(1 for g in generators if g.terms)
        return buchberger_(generators, *args, **kwargs)

    def counted_s_pair_remainder(*args):
        remainder = s_pair_remainder_(*args)
        counts[1] += 1
        counts[2] += not remainder
        return remainder

    monkeypatch.setattr(groebner, "buchberger", counted_buchberger)
    monkeypatch.setattr(groebner, "_s_pair_remainder", counted_s_pair_remainder)
    run()
    return tuple(counts)


@pytest.mark.parametrize("n,m,expected", [(5, 2, (119, 54, 44)), (6, 1, (63, 54, 11))])
def test_spair_counts_of_the_benchmark_sentinels(n, m, expected, monkeypatch):
    """The direct route: Buchberger on the (n, m) generators."""
    bound = default_degree_bound(n, m)
    gens = quasi_invariant_generators(n, m, bound)
    run = partial(reduced_groebner_basis, gens, bound, nvars=n)
    assert _spair_counts(run, monkeypatch) == expected


def test_spair_counts_of_the_groebner_command_at_5_2(monkeypatch, capsys):
    """The command runs Buchberger on the 13 Lyndon generators of (5,1)
    only and substitutes x_i -> x_i^2 into the result."""
    quasi_ideal_basis.cache_clear()
    run = partial(cli.main, ["groebner", "--n", "5", "--m", "2", "--json"])
    assert _spair_counts(run, monkeypatch) == (13, 12, 2)
    capsys.readouterr()


def test_spair_counts_of_the_groebner_command_at_6_1(monkeypatch, capsys):
    quasi_ideal_basis.cache_clear()
    run = partial(cli.main, ["groebner", "--n", "6", "--m", "1", "--json"])
    assert _spair_counts(run, monkeypatch) == (22, 54, 11)
    capsys.readouterr()


def _reference_buchberger(generators, degree_bound):
    """The loop without the graded order or the chain criterion: autoreduce
    the input, then reduce every queued pair with non-coprime leading
    monomials and lcm degree within the bound."""
    basis = _restart_autoreduce(generators)
    lms = [g.leading_monomial()[0] for g in basis]
    divisors = groebner._Divisors(basis[0].nvars, basis, degree_bound)
    heap = []

    def push_pairs(j):
        for i in range(j):
            if all(min(a, b) == 0 for a, b in zip(lms[i], lms[j])):
                continue
            lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
            if sum(lcm) <= degree_bound:
                heapq.heappush(heap, (sum(lcm), lcm, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        remainder = divisors.normal_form(s_polynomial(basis[i], basis[j]))
        if remainder.terms:
            basis.append(_monic(remainder))
            lms.append(remainder.leading_monomial()[0])
            divisors.append(divisors.divisor_terms(basis[-1]))
            push_pairs(len(basis) - 1)
    ordered = tuple(sorted(basis, key=lambda g: g.leading_monomial()[0], reverse=True))
    return GroebnerBasis(basis[0].nvars, ordered, degree_bound, reduced=False)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(_homogeneous_polynomials(n, 4), min_size=1, max_size=4)
    )
)
def test_buchberger_matches_the_reference_loop(gens):
    bound = max(g.degree() for g in gens) + 2
    basis = reduced_groebner_basis(gens, bound)
    assert basis == reduce_basis(_reference_buchberger(gens, bound))
    assert verify_buchberger_criterion(basis)



def test_reduced_basis_is_presentation_independent():
    gens = quasi_invariant_generators(3, 1, default_degree_bound(3, 1))
    reference = reduced_groebner_basis(gens, default_degree_bound(3, 1))
    rng = random.Random(13)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * Fraction(rng.randint(1, 5)) for g in shuffled]
        again = reduced_groebner_basis(scaled, default_degree_bound(3, 1))
        assert again.generators == reference.generators


@pytest.mark.parametrize(
    "n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 3), (5, 2), (6, 1)]
)
def test_buchberger_criterion_self_check(n, m):
    assert verify_buchberger_criterion(quasi_ideal_basis(n, m))


def test_standard_monomials_examples():
    basis = _basis([P("x1 + x2", 2), P("x2^2", 2)], 5)
    sms = standard_monomials(basis, 3)
    assert sms.monomials == ((0, 0), (0, 1))
    assert sms.complete

    gb22 = quasi_ideal_basis(2, 2, 7)
    sms22 = standard_monomials(gb22, 5)
    assert list(sms22.monomials) == quotient_basis(2, 2)
    assert sms22.complete

    empty = GroebnerBasis(1, (), 1, reduced=True)
    sms_empty = standard_monomials(empty, 1)
    assert sms_empty.monomials == ((0,), (1,))
    assert not sms_empty.complete


def _scan_standard_monomials(basis, through_degree):
    """Reference enumerator: test every monomial up to the degree against
    every leading monomial."""
    lms = basis.leading_monomials()
    found = [
        nu
        for d in range(through_degree + 1)
        for nu in exponent_vectors(basis.nvars, d)
        if not any(all(a <= b for a, b in zip(lm, nu)) for lm in lms)
    ]
    found.sort(key=lambda nu: (sum(nu), nu))
    top = sum(1 for nu in found if sum(nu) == through_degree)
    return StandardMonomialSet(basis.nvars, tuple(found), through_degree, complete=(top == 0))


def _assert_matches_scan(basis):
    for through in range(basis.degree_bound + 1):
        assert standard_monomials(basis, through) == _scan_standard_monomials(basis, through)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_standard_monomials_match_scan_on_quasi_bases(n, m):
    for bound in range(default_degree_bound(n, m) + 2):
        _assert_matches_scan(quasi_ideal_basis(n, m, bound))


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (3, 3)])
def test_standard_monomials_match_scan_on_classical_bases(n, m):
    _assert_matches_scan(classical_ideal_basis(n, m))


def test_standard_monomials_match_scan_on_empty_and_constant_bases():
    for n in (1, 3):
        _assert_matches_scan(GroebnerBasis(n, (), 4, reduced=True))
        one = Polynomial.monomial((0,) * n, Fraction(1))
        constant = GroebnerBasis(n, (P("x1", n), one), 3, reduced=False)
        _assert_matches_scan(constant)
        assert standard_monomials(constant, 0) == StandardMonomialSet(n, (), 0, complete=True)


def _cap_degree(exps, cap=6):
    capped = []
    for e in exps:
        capped.append(min(e, cap - sum(capped)))
    return tuple(capped)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, 6), min_size=n, max_size=n).map(_cap_degree),
                max_size=6,
            ),
        )
    )
)
def test_standard_monomials_match_scan_on_monomial_ideals(drawn):
    n, lms = drawn
    gens = tuple(
        Polynomial.monomial(lm, Fraction(1)) for lm in sorted(set(lms), reverse=True)
    )
    _assert_matches_scan(GroebnerBasis(n, gens, 7, reduced=False))


def test_standard_monomials_stop_at_the_first_empty_degree():
    basis = quasi_ideal_basis(2, 1)
    huge = GroebnerBasis(basis.nvars, basis.generators, 10**6, basis.reduced)
    sms = standard_monomials(huge, 10**6)
    assert sms.complete
    assert sms.monomials == standard_monomials(basis, basis.degree_bound).monomials


def test_standard_monomials_respects_bound():
    basis = _basis([P("x1", 2)], 3)
    with pytest.raises(ValueError):
        standard_monomials(basis, 4)


def test_standard_monomials_closed_under_division():
    basis = quasi_ideal_basis(3, 2)
    sms = standard_monomials(basis, basis.degree_bound)
    members = set(sms.monomials)
    for nu in members:
        for i in range(len(nu)):
            if nu[i]:
                down = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
                assert down in members


def test_substitute_basis_power():
    gb = quasi_ideal_basis(2, 1)
    squared = substitute_basis_power(gb, 2)
    assert [str(g) for g in squared.generators] == ["x1^2 + x2^2", "x2^4"]
    assert squared.degree_bound == 2 * gb.degree_bound
    assert substitute_basis_power(gb, 1).generators == gb.generators
    single = _basis([P("x1", 1)], 1)
    assert [str(g) for g in substitute_basis_power(single, 3).generators] == ["x1^3"]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_substituted_basis_equals_direct_basis(n, m):
    substituted = substitute_basis_power(quasi_ideal_basis(n, 1), m)
    direct = direct_quasi_ideal_basis(n, m)
    assert substituted.generators == direct.generators


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_quasi_ideal_basis_equals_the_direct_route_at_every_bound(n, m):
    for bound in range(2 * m * n + 2):
        substituted = quasi_ideal_basis(n, m, bound)
        direct = direct_quasi_ideal_basis(n, m, bound)
        assert substituted == direct, bound
        assert standard_monomials(substituted, bound) == standard_monomials(direct, bound)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_lyndon_route_equals_the_direct_route_at_every_bound(n):
    for bound in range(n + 2):
        lyndon = quasi_ideal_basis(n, 1, bound)
        direct = direct_quasi_ideal_basis(n, 1, bound)
        assert lyndon == direct, bound
        assert standard_monomials(lyndon, bound) == standard_monomials(direct, bound)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_generator_lies_in_the_lyndon_route_ideal(n):
    basis = quasi_ideal_basis(n, 1)
    for g in quasi_invariant_generators(n, 1, n):
        assert normal_form(g, basis).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_m1_basis_is_complete_at_the_default_bound(n):
    """The certificate the substitution route rests on: at bound n nothing
    of degree n is standard, so the truncated m = 1 basis is a full one."""
    basis = quasi_ideal_basis(n, 1)
    assert basis.degree_bound == n
    sms = standard_monomials(basis, n)
    assert sms.complete
    assert len(sms.monomials) == catalan(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_leading_monomials_are_dilated_minimal_transdiagonals(n, m):
    basis = quasi_ideal_basis(n, m)
    got = sorted(basis.leading_monomials())
    expected = sorted(
        tuple(m * e for e in eps)
        for eps in minimal_transdiagonal(n, basis.degree_bound // m)
    )
    assert got == expected


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_standard_monomials_equal_path_basis(n, m):
    basis = quasi_ideal_basis(n, m)
    sms = standard_monomials(basis, basis.degree_bound)
    assert sms.complete
    assert list(sms.monomials) == quotient_basis(n, m)
    assert len(sms.monomials) == m**n * catalan(n)


@pytest.mark.parametrize(
    "n,m", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 3), (5, 2), (6, 1)]
)
def test_stabilization_of_the_degree_truncation(n, m):
    assert stabilization_check(n, m)


def test_default_bound_shares_the_cache_entry():
    assert quasi_ideal_basis(3, 2) is quasi_ideal_basis(3, 2, default_degree_bound(3, 2))
    assert classical_ideal_basis(2, 2) is classical_ideal_basis(
        2, 2, classical_degree_bound(2, 2)
    )


def test_classical_ideal_dimensions():
    import math

    for n, m in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]:
        basis = classical_ideal_basis(n, m)
        sms = standard_monomials(basis, basis.degree_bound)
        assert sms.complete
        assert len(sms.monomials) == m**n * math.factorial(n)


def test_degree_bounds():
    assert default_degree_bound(2, 2) == 5
    assert default_degree_bound(1, 1) == 1
    # one more than the top quotient degree m(n-1) + n(m-1)
    for n in range(1, 5):
        for m in range(1, 4):
            top = max(sum(nu) for nu in quotient_basis(n, m))
            assert default_degree_bound(n, m) == top + 1
    assert classical_degree_bound(2, 1) == 2
    assert classical_degree_bound(3, 1) == 4


def test_records_are_immutable_values():
    basis = quasi_ideal_basis(2, 2)
    assert basis._divisors is basis._divisors  # cached once per basis
    for record, field in ((basis, "degree_bound"), (standard_monomials(basis, 3), "complete")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
    assert repr(basis) == (
        "GroebnerBasis(nvars=2, generators=(Polynomial(2, 'x1^2 + x2^2'), "
        "Polynomial(2, 'x2^4')), degree_bound=5, reduced=True)"
    )
    copy = GroebnerBasis(basis.nvars, basis.generators, basis.degree_bound, basis.reduced)
    assert copy == basis and hash(copy) == hash(basis)
