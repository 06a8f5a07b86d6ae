"""Wreath-product elements and both polynomial actions."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st
from test_linalg import dense_rank

from quasicov import group, verify
from quasicov.cli import main
from quasicov.errors import ResourceLimitError
from quasicov.group import (
    GroupElement,
    _classical_image,
    _quasi_image,
    classical_act,
    diagonal_generator,
    enumerate_group,
    fixed_space_dimension,
    generators,
    group_mul,
    identity,
    inverse,
    is_quasi_invariant,
    parse_group_element,
    quasi_act,
    render_group_element,
    transposition,
)
from quasicov.polynomials import (
    Polynomial,
    exponent_vectors,
    parse_polynomial,
    promote_to_cyclotomic,
    render_polynomial,
)
from quasicov.qsym import compositions_of, elementary_symmetric_power, monomial_qsym
from quasicov.scalars import Cyclotomic, cyclotomic_polynomial, euler_phi

EXAMPLE_ELEMENT = "tau=3,1,2;weights=1,0,1"


def test_element_validation():
    with pytest.raises(ValueError):
        GroupElement(2, 2, (1, 1), (0, 0))
    with pytest.raises(ValueError):
        GroupElement(2, 2, (1, 2), (0, 2))
    with pytest.raises(ValueError):
        GroupElement(0, 2, (), ())


def test_elements_are_immutable_values():
    g = GroupElement(2, 3, (2, 1), (1, 0))
    assert repr(g) == "GroupElement(n=2, m=3, tau=(2, 1), weights=(1, 0))"
    assert g == GroupElement(2, 3, (2, 1), (1, 0))
    assert hash(g) == hash(GroupElement(2, 3, (2, 1), (1, 0)))
    assert g != GroupElement(2, 3, (2, 1), (2, 0))
    with pytest.raises(AttributeError):
        g.m = 4
    with pytest.raises(AttributeError):
        g.extra = 0


def test_parse_render_round_trip():
    g = parse_group_element(EXAMPLE_ELEMENT, 3, 3)
    assert g.tau == (3, 1, 2)
    assert g.weights == (1, 0, 1)
    assert render_group_element(g) == EXAMPLE_ELEMENT
    with pytest.raises(ValueError):
        parse_group_element("tau=1,2", 2, 2)
    with pytest.raises(ValueError):
        parse_group_element("tau=2,1;weights=1,0;tau=1,2", 2, 2)


def test_identity_and_inverse():
    for n, m in [(1, 1), (2, 2), (3, 3)]:
        e = identity(n, m)
        for g in enumerate_group(n, m):
            assert group_mul(g, e) == g
            assert group_mul(e, g) == g
            assert group_mul(g, inverse(g)) == e
            assert group_mul(inverse(g), g) == e


def test_diagonal_generator_squares():
    g1 = diagonal_generator(2, 3)
    assert group_mul(g1, g1).weights == (2, 0)
    assert group_mul(g1, g1).tau == (1, 2)


def _matrix(g):
    """The pseudo-permutation matrix of g: row i holds zeta^(weights[i])
    in column tau[i]."""
    zero = Cyclotomic.zero(g.m)
    rows = [[zero] * g.n for _ in range(g.n)]
    for i in range(g.n):
        rows[i][g.tau[i] - 1] = Cyclotomic.zeta(g.m, g.weights[i])
    return rows


def _matrix_product(a, b):
    n = len(a)
    zero = a[0][0] - a[0][0]
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = zero
            for j in range(n):
                acc = acc + a[i][j] * b[j][k]
            out[i][k] = acc
    return out


def test_group_mul_composes_substitutions():
    # group_mul(g, h) acts as g after h, i.e. matrix(h) * matrix(g)
    elements = enumerate_group(3, 2)
    rng = random.Random(9)
    for _ in range(40):
        g, h = rng.choice(elements), rng.choice(elements)
        assert _matrix(group_mul(g, h)) == _matrix_product(_matrix(h), _matrix(g))


def test_generator_closure_is_the_whole_group():
    gens = generators(2, 2)
    known = set(gens) | {identity(2, 2)}
    frontier = list(known)
    while frontier:
        fresh = []
        for a in list(known):
            for b in frontier:
                c = group_mul(a, b)
                if c not in known:
                    known.add(c)
                    fresh.append(c)
        frontier = fresh
    assert len(known) == 8  # 2^2 * 2!


def test_enumerate_group():
    assert enumerate_group(1, 1) == [identity(1, 1)]
    assert len(enumerate_group(2, 2)) == 8
    assert len(enumerate_group(3, 3)) == 162
    assert len(set(enumerate_group(3, 3))) == 162
    with pytest.raises(ResourceLimitError):
        enumerate_group(3, 3, max_order=100)


def test_classical_action_examples():
    g = parse_group_element(EXAMPLE_ELEMENT, 3, 3)
    p = parse_polynomial("x1^2*x2", 3)
    j = Cyclotomic.zeta(3)
    assert classical_act(g, p) == Polynomial(3, {(1, 0, 2): j * j})
    e = identity(3, 3)
    assert classical_act(e, p) == promote_to_cyclotomic(p, 3)
    # x2 is untouched by a diagonal entry at position 1
    g1 = diagonal_generator(2, 2)
    x2 = parse_polynomial("x2", 2)
    assert classical_act(g1, x2) == promote_to_cyclotomic(x2, 2)


def test_quasi_action_worked_example():
    g = parse_group_element(EXAMPLE_ELEMENT, 3, 3)
    p = parse_polynomial("x1^2*x2", 3)
    j = Cyclotomic.zeta(3)
    assert quasi_act(g, p) == Polynomial(3, {(2, 0, 1): j * j})


def test_quasi_action_weight_rules():
    g1 = diagonal_generator(2, 2)
    # all exponents divisible by m: no weight factor
    p = parse_polynomial("x1^2", 2)
    assert quasi_act(g1, p) == promote_to_cyclotomic(p, 2)
    # the global weight applies even though x1 is absent from the support
    x2 = parse_polynomial("x2", 2)
    assert quasi_act(g1, x2) == Polynomial(2, {(0, 1): Cyclotomic.from_rational(2, -1)})


def test_quasi_action_moves_support_and_resorts():
    s1 = transposition(2, 1, 1)
    assert quasi_act(s1, parse_polynomial("x1", 2)) == promote_to_cyclotomic(
        parse_polynomial("x2", 2), 1
    )
    # support {1,2} maps to {2,1}, sorted back: exponents reattach in order
    p = parse_polynomial("x1^2*x2", 2)
    assert quasi_act(s1, p) == promote_to_cyclotomic(p, 1)


def test_constants_are_fixed():
    c = Polynomial.constant(3, Fraction(5, 3))
    for g in enumerate_group(3, 2):
        assert quasi_act(g, c) == promote_to_cyclotomic(c, 2)


def test_is_quasi_invariant_examples():
    assert is_quasi_invariant(monomial_qsym((2, 1), 3).substitute_power(2), 3, 2)
    assert not is_quasi_invariant(parse_polynomial("x1", 2), 2, 1)
    assert is_quasi_invariant(Polynomial.constant(2, 3), 2, 5)


def test_classical_invariants_are_quasi_invariant():
    # e_k(x^m) is fixed by the quasi action as well as the classical one
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        for k in range(1, n + 1):
            assert is_quasi_invariant(elementary_symmetric_power(k, n, m), n, m)


def test_order_one_case_fixes_every_monomial_generator():
    # at m = 1 the quasi action fixes all quasi-symmetric polynomials
    for n in range(1, 5):
        for d in range(5):
            for alpha in compositions_of(d, n):
                assert is_quasi_invariant(monomial_qsym(alpha, n), n, 1)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_averaging_annihilates_off_lattice_monomials(n, m):
    """Averaging a diagonal generator over its cyclic group kills any
    monomial with an exponent not divisible by m and fixes the rest."""
    rng = random.Random(n * 10 + m)
    for j in range(1, n + 1):
        gj = diagonal_generator(n, m, j)
        for _ in range(10):
            nu = tuple(rng.randrange(2 * m) for _ in range(n))
            p = promote_to_cyclotomic(Polynomial.monomial(nu, 1), m)
            total = Polynomial.zero(n)
            g = identity(n, m)
            for _ in range(m):
                total = total + quasi_act(g, p)
                g = group_mul(gj, g)
            average = total * Fraction(1, m)
            if all(e % m == 0 for e in nu):
                assert average == p
            else:
                assert average.is_zero()


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_action_axiom_all_pairs(n, m):
    elements = enumerate_group(n, m)
    rng = random.Random(500 + 10 * n + m)
    for g in elements:
        for h in elements:
            nu = tuple(rng.randrange(4) for _ in range(n))
            p = Polynomial.monomial(nu, 1)
            gh = group_mul(g, h)
            assert quasi_act(gh, p) == quasi_act(g, quasi_act(h, p))
            assert classical_act(gh, p) == classical_act(g, classical_act(h, p))


@pytest.mark.parametrize("act", [quasi_act, classical_act])
def test_actions_are_linear_and_store_no_zero_terms(act):
    p = parse_polynomial("x1^2*x2 + 2*x1 - x2 + 3", 2)
    x2 = parse_polynomial("x2", 2)
    for g in enumerate_group(2, 3):
        total = act(g, p) + act(g, x2 - p)
        assert total == act(g, x2)
        assert 0 not in total.terms.values()
        assert 0 not in act(g, p).terms.values()


@pytest.mark.parametrize(
    "act,image", [(quasi_act, _quasi_image), (classical_act, _classical_image)]
)
@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_integer_images_match_the_polynomial_actions(act, image, n, m):
    """The (exponent vector, phase) images that the action-axioms suite
    checks are what the public actions do to each monomial."""
    for g in enumerate_group(n, m):
        for d in range(4):
            for nu in exponent_vectors(n, d):
                mu, phase = image(g, nu)
                expected = Polynomial(n, {mu: Cyclotomic.zeta(m, phase)})
                assert act(g, Polynomial.monomial(nu, 1)) == expected


def _failure_counts(checks):
    return {c["name"]: c["actual"] for c in checks if c["name"].endswith("_failures")}


def test_action_axioms_suite_catches_a_wrong_composition(monkeypatch):
    monkeypatch.setattr(verify, "group_mul", lambda g, h: group_mul(h, g))
    counts = _failure_counts(verify.suite_action_axioms(3, 2))
    assert counts["quasi_action_axiom_failures"] > 0
    assert counts["classical_action_axiom_failures"] > 0
    # the weight sum does not see the order of the factors
    assert counts["weight_multiplicativity_failures"] == 0


def test_action_axioms_suite_catches_a_wrong_weight(monkeypatch):
    def shifted(g, h):
        gh = group_mul(g, h)
        weights = ((gh.weights[0] + 1) % gh.m,) + gh.weights[1:]
        return GroupElement(gh.n, gh.m, gh.tau, weights)

    monkeypatch.setattr(verify, "group_mul", shifted)
    counts = _failure_counts(verify.suite_action_axioms(3, 2))
    assert counts["weight_multiplicativity_failures"] > 0


def test_weight_multiplicativity():
    # The global weight zeta^(sum of weights) is multiplicative: the weight
    # sums add mod m.
    elements = enumerate_group(2, 3)
    for g in elements:
        for h in elements:
            assert sum(group_mul(g, h).weights) % 3 == (sum(g.weights) + sum(h.weights)) % 3


def test_fixed_space_dimension_examples():
    assert fixed_space_dimension(2, 2, 2, "quasi") == 1  # spanned by x1^2 + x2^2
    assert fixed_space_dimension(2, 2, 1, "quasi") == 0
    assert fixed_space_dimension(3, 2, 0, "quasi") == 1
    assert fixed_space_dimension(3, 2, 0, "classical") == 1
    with pytest.raises(ValueError):
        fixed_space_dimension(2, 2, 1, "other")
    with pytest.raises(ResourceLimitError):
        fixed_space_dimension(3, 3, 6, "quasi", max_entries=10)


def _linear_algebra_fixed_space_dimension(n, m, degree, action):
    """The kernel dimension of (g - id), stacked over the generators, on
    the degree-d monomials over Q(zeta_m), by field elimination."""
    image = _quasi_image if action == "quasi" else _classical_image
    monomials = exponent_vectors(n, degree)
    index = {nu: i for i, nu in enumerate(monomials)}
    rows = []
    for g in generators(n, m):
        for i, nu in enumerate(monomials):
            mu, phase = image(g, nu)
            row = [Cyclotomic.zero(m)] * len(monomials)
            row[index[mu]] = Cyclotomic.zeta(m, phase)
            row[i] = row[i] - 1
            rows.append(row)
    return len(monomials) - dense_rank(rows)


@pytest.mark.parametrize("action", ["quasi", "classical"])
@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)])
def test_orbit_counting_matches_linear_algebra(action, n, m):
    for d in range(7):
        expected = _linear_algebra_fixed_space_dimension(n, m, d, action)
        assert fixed_space_dimension(n, m, d, action) == expected, (n, m, d)


def test_fixed_space_cap_is_checked_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("exponent_vectors called before the cap")

    monkeypatch.setattr(group, "exponent_vectors", enumerate_nothing)
    # 3 generators times C(5, 3) = 10 monomials of degree 3 in 3 variables
    with pytest.raises(ResourceLimitError):
        fixed_space_dimension(3, 2, 3, "quasi", max_entries=29)
    with pytest.raises(ResourceLimitError):
        fixed_space_dimension(40, 3, 40, "classical")
    monkeypatch.undo()
    assert fixed_space_dimension(3, 2, 3, "quasi", max_entries=30) == 0


def test_propu_at_nine_variables(capsys):
    assert main(["verify", "--suite", "propu", "--n", "9", "--m", "3"]) == 0
    assert "status: pass" in capsys.readouterr().out


def _partitions_with_part_at_most(d, largest):
    if d == 0:
        return 1
    if largest == 0:
        return 0
    return sum(
        _partitions_with_part_at_most(d - part, part)
        for part in range(min(d, largest), 0, -1)
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (2, 3)])
def test_classical_fixed_space_dimension(n, m):
    """Classical invariants are polynomials in e_1(x^m)..e_n(x^m), so the
    degree-d dimension counts partitions of d/m with parts at most n."""
    for d in range(7):
        expected = _partitions_with_part_at_most(d // m, n) if d % m == 0 else 0
        assert fixed_space_dimension(n, m, d, "classical") == expected


# ---- the actions against a reference extension, and beyond the cap ---------

def _reference_extend(image, g, p):
    """The action extended term by term with general products: each image
    coefficient is coeff * zeta^phase, reduced modulo Phi_m."""
    acc = {}
    for nu, coeff in promote_to_cyclotomic(p, g.m).terms.items():
        mu, phase = image(g, nu)
        acc[mu] = acc.get(mu, 0) + coeff * Cyclotomic.zeta(g.m, phase)
    return Polynomial(g.n, acc)


@st.composite
def elements(draw, n, m):
    tau = draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return GroupElement(n, m, tuple(tau), tuple(weights))


@st.composite
def polynomials(draw, n, m):
    """Rational or cyclotomic polynomials in n variables, up to 6 terms."""
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if draw(st.booleans()):
        coeff = rational
    else:
        size = euler_phi(m) + 1  # one past phi, so some literals reduce
        coeff = st.lists(rational, max_size=size).map(lambda cs: Cyclotomic(m, cs))
    exps = st.tuples(*[st.integers(0, 5)] * n)
    return Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=6)))


ACTIONS = [(quasi_act, _quasi_image), (classical_act, _classical_image)]


@pytest.mark.parametrize("act,image", ACTIONS)
@given(data=st.data())
def test_actions_match_the_reference_extension(act, image, data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    g = data.draw(elements(n, m))
    p = data.draw(polynomials(n, m))
    result = act(g, p)
    expected = _reference_extend(image, g, p)
    assert result == expected
    assert render_polynomial(result) == render_polynomial(expected)
    assert 0 not in result.terms.values()


@pytest.mark.parametrize("act", [quasi_act, classical_act])
@pytest.mark.parametrize("n,m", [(6, 2), (7, 3), (8, 2), (8, 5)])
def test_action_axioms_beyond_the_enumeration_cap(act, n, m):
    with pytest.raises(ResourceLimitError):
        enumerate_group(n, m)
    rng = random.Random(1000 * n + m)

    def element():
        tau = list(range(1, n + 1))
        rng.shuffle(tau)
        return GroupElement(n, m, tuple(tau), tuple(rng.randrange(m) for _ in range(n)))

    for _ in range(6):
        g, h = element(), element()
        terms = {}
        for _ in range(12):
            nu = tuple(rng.randrange(2 * m + 1) for _ in range(n))
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(euler_phi(m))]
            terms[nu] = Cyclotomic(m, coeffs)
        for p in (Polynomial(n, terms), Polynomial(n, {nu: 1 for nu in terms})):
            assert act(group_mul(g, h), p) == act(g, act(h, p))
            assert act(inverse(g), act(g, p)) == promote_to_cyclotomic(p, m)


# ---- act text against an all-Fraction reference ------------------------------

def _times_zeta_power(coeffs, m, phase):
    """Power-basis Fractions of coeffs * z^phase, by long division by Phi_m."""
    den = [Fraction(c) for c in cyclotomic_polynomial(m)]
    phi = len(den) - 1
    rem = [Fraction(0)] * phase + [Fraction(c) for c in coeffs]
    for top in range(len(rem) - 1, phi - 1, -1):
        q = rem[top] / den[-1]
        if q:
            for i, d in enumerate(den):
                rem[top - phi + i] -= q * d
    return rem[:phi]


def _fraction_text(cs) -> str:
    pieces = []
    for i, c in enumerate(cs):
        if c:
            mag = abs(c)
            var = "" if i == 0 else "z" if i == 1 else f"z^{i}"
            body = str(mag) if i == 0 else var if mag == 1 else f"{mag}{var}"
            pieces.append(("-" if c < 0 else "+") + body)
    text = "".join(pieces)
    return text[1:] if text[0] == "+" else text


def _reference_act_text(image, g, p) -> str:
    """The action's text, from coefficients kept as Fractions throughout;
    p has Cyclotomic coefficients."""
    acc = {}
    for nu, coeff in p.terms.items():
        mu, phase = image(g, nu)
        v = _times_zeta_power(coeff.coeffs, g.m, phase)
        acc[mu] = [x + y for x, y in zip(acc[mu], v)] if mu in acc else v
    rendered = []
    for mu in sorted(acc, reverse=True):
        cs = acc[mu]
        mon = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mu, 1) if e)
        if any(cs[1:]):
            body = f"({_fraction_text(cs)})" + (f"*{mon}" if mon else "")
            rendered.append(" + " + body)
        elif cs[0]:
            mag = abs(cs[0])
            body = str(mag) if not mon else mon if mag == 1 else f"{mag}*{mon}"
            rendered.append((" - " if cs[0] < 0 else " + ") + body)
    if not rendered:
        return "0"
    text = "".join(rendered)
    return "-" + text[3:] if text.startswith(" - ") else text[3:]


ACT_TEXTS = [
    "3/2*x1 + (1/2-2z)*x2 - 4*x3^2 + 5",
    "x1^3*x2*x3 - x1^2*x3 + 7/3*x2^2*x3 + (-1+z)*x1*x2^2 - 2/5",
    "x1 + 2*x2 - x1 + (1+z-z)*x3^2 - x3^2 - 6*x1^2*x2^4",
    "(2-z^2)*x1^2 + (z^3-1/4z)*x2*x3 + (z+1)*x1*x3^2 - 3*x2^5 + x3",
    "-x1*x2*x3 + (-1-z)*x1^4 + 1/7*x2",
]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 12, 300])
@pytest.mark.parametrize("act,image", ACTIONS)
def test_act_text_matches_the_fraction_reference(act, image, m):
    rng = random.Random(m)
    elements_ = [identity(3, m)] + [
        GroupElement(3, m, tuple(rng.sample((1, 2, 3), 3)), tuple(rng.choices(range(m), k=3)))
        for _ in range(3)
    ]
    for text in ACT_TEXTS:
        p = parse_polynomial(text, 3, order=m)
        for g in elements_:
            assert render_polynomial(act(g, p)) == _reference_act_text(image, g, p)
