"""The wreath product of a cyclic group of order m with the symmetric group.

Elements are pseudo-permutation matrices: row i carries zeta^(weights[i])
in column tau[i] (1-indexed), where zeta is a primitive m-th root of unity.
The order of the group is m^n * n!.

Two actions on polynomials are provided.  The classical one substitutes
x_j <- zeta^(a_j) * x_tau(j).  The quasi-symmetrizing one moves a
monomial's support through tau, re-sorts it, re-attaches the exponent list
in variable order, and multiplies by the global weight zeta^(sum a_i)
unless every exponent is divisible by m.  ``group_mul`` composes elements
so that act(group_mul(g, h), p) == act(g, act(h, p)) for both actions.

Either action sends a monomial to one monomial times a power of zeta, so
the image of a monomial is computed in integers as (exponent vector,
phase mod m).  Extended linearly to a polynomial, each term's coefficient
is multiplied by zeta^phase: a ``Cyclotomic`` one as a shift of its
power-basis coefficients, a rational c as c * zeta^phase if phase != 0.
Fixed spaces are counted on the same integer images, orbit by orbit, with
no linear algebra.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations, product
from math import comb, factorial

from .errors import DEFAULT_MAX_GROUP_ORDER, DEFAULT_MAX_MATRIX_ENTRIES, ResourceLimitError
from .polynomials import Polynomial, exponent_vectors
from .scalars import Cyclotomic


class GroupElement(namedtuple("GroupElement", "n m tau weights")):
    """An immutable, validated element.  ``tau`` holds 1-indexed images: row
    i has its nonzero entry in column tau[i-1]; ``weights`` holds the
    exponents of zeta, one per row."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, tau: tuple, weights: tuple):
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        if sorted(tau) != list(range(1, n + 1)):
            raise ValueError(f"tau={tau} is not a permutation of 1..{n}")
        if len(weights) != n or any(not 0 <= a < m for a in weights):
            raise ValueError(f"weights={weights} not residues mod {m}")
        return super().__new__(cls, n, m, tau, weights)

    def __str__(self):
        return render_group_element(self)


def identity(n: int, m: int) -> GroupElement:
    return GroupElement(n, m, tuple(range(1, n + 1)), (0,) * n)


def transposition(n: int, m: int, i: int) -> GroupElement:
    """The adjacent transposition swapping i and i+1, with zero weights."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range 1..{n - 1}")
    tau = list(range(1, n + 1))
    tau[i - 1], tau[i] = tau[i], tau[i - 1]
    return GroupElement(n, m, tuple(tau), (0,) * n)


def diagonal_generator(n: int, m: int, j: int = 1) -> GroupElement:
    """The diagonal element with zeta in place j and ones elsewhere."""
    if not 1 <= j <= n:
        raise ValueError(f"diagonal place {j} out of range 1..{n}")
    weights = [0] * n
    weights[j - 1] = 1 % m
    return GroupElement(n, m, tuple(range(1, n + 1)), tuple(weights))


def generators(n: int, m: int) -> list:
    """Adjacent transpositions plus (when m > 1) the first diagonal generator."""
    gens = [transposition(n, m, i) for i in range(1, n)]
    if m > 1:
        gens.append(diagonal_generator(n, m, 1))
    return gens


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """The element acting as g after h (matrix product matrix(h)*matrix(g))."""
    if (g.n, g.m) != (h.n, h.m):
        raise ValueError("group parameter mismatch")
    tau = tuple(g.tau[h.tau[j] - 1] for j in range(g.n))
    weights = tuple((h.weights[j] + g.weights[h.tau[j] - 1]) % g.m for j in range(g.n))
    return GroupElement(g.n, g.m, tau, weights)


def inverse(g: GroupElement) -> GroupElement:
    tau_inv = [0] * g.n
    for i, image in enumerate(g.tau):
        tau_inv[image - 1] = i + 1
    weights = tuple((-g.weights[tau_inv[j] - 1]) % g.m for j in range(g.n))
    return GroupElement(g.n, g.m, tuple(tau_inv), weights)


def enumerate_group(n: int, m: int, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> list:
    order = m**n * factorial(n)
    if order > max_order:
        raise ResourceLimitError(
            f"group order {order} exceeds enumeration cap {max_order}"
        )
    out = []
    for tau in permutations(range(1, n + 1)):
        for weights in product(range(m), repeat=n):
            out.append(GroupElement(n, m, tau, weights))
    return out


def render_group_element(g: GroupElement) -> str:
    tau = ",".join(str(t) for t in g.tau)
    weights = ",".join(str(a) for a in g.weights)
    return f"tau={tau};weights={weights}"


def parse_group_element(text: str, n: int, m: int) -> GroupElement:
    parts = dict()
    for field in text.strip().split(";"):
        if "=" not in field:
            raise ValueError(f"cannot parse group element {text!r}")
        key, _, value = field.partition("=")
        key = key.strip()
        if key in parts:
            raise ValueError(f"repeated field {key!r} in group element {text!r}")
        parts[key] = tuple(int(tok) for tok in value.split(","))
    if set(parts) != {"tau", "weights"}:
        raise ValueError(f"group element needs tau and weights: {text!r}")
    return GroupElement(n, m, parts["tau"], parts["weights"])


# ---- actions ------------------------------------------------------------

def _classical_image(g: GroupElement, nu) -> tuple:
    """(mu, phase) with g . x^nu = zeta^phase * x^mu under the classical action."""
    mu = [0] * g.n
    phase = 0
    for j, e in enumerate(nu):
        if e:
            mu[g.tau[j] - 1] = e
            phase += g.weights[j] * e
    return tuple(mu), phase % g.m


def _quasi_image(g: GroupElement, nu) -> tuple:
    """(mu, phase) with g . x^nu = zeta^phase * x^mu under the quasi action."""
    support = [j for j, e in enumerate(nu) if e]
    mu = [0] * g.n
    for pos, j in zip(sorted(g.tau[j] - 1 for j in support), support):
        mu[pos] = nu[j]
    phase = sum(g.weights) if any(nu[j] % g.m for j in support) else 0
    return tuple(mu), phase % g.m


def _extend_linearly(image, g: GroupElement, p: Polynomial) -> Polynomial:
    """Apply a monomial image function term by term over Q(zeta_m)."""
    if p.nvars != g.n:
        raise ValueError(f"polynomial has {p.nvars} variables, element acts on {g.n}")
    acc: dict = {}
    for nu, coeff in p.terms.items():
        mu, phase = image(g, nu)
        if not isinstance(coeff, Cyclotomic):
            v = Cyclotomic(g.m, (0,) * phase + (coeff,)) if phase else coeff
        elif coeff.order == g.m:
            v = coeff.times_zeta(phase)
        else:
            raise ValueError(f"cannot act by order {g.m} on order-{coeff.order} coefficients")
        acc[mu] = acc[mu] + v if mu in acc else v
    return Polynomial(g.n, acc)


def classical_act(g: GroupElement, p: Polynomial) -> Polynomial:
    """Substitute x_j <- zeta^(weights[j]) * x_tau(j) in p."""
    return _extend_linearly(_classical_image, g, p)


def quasi_act(g: GroupElement, p: Polynomial) -> Polynomial:
    """The quasi-symmetrizing action, extended linearly over terms.

    For a monomial with support S and exponent list K (read along S in
    variable order): the image support is the sorted image of S under tau,
    K is re-attached to it in order, and the coefficient picks up the
    global weight zeta^(sum of all weights) unless every entry of K is
    divisible by m.
    """
    return _extend_linearly(_quasi_image, g, p)


def is_quasi_invariant(p: Polynomial, n: int, m: int) -> bool:
    """True iff every group generator fixes p under the quasi action."""
    if p.nvars != n:
        raise ValueError(f"polynomial has {p.nvars} variables, expected {n}")
    return all(quasi_act(g, p) == p for g in generators(n, m))


def fixed_space_dimension(
    n: int,
    m: int,
    degree: int,
    action: str = "quasi",
    max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES,
) -> int:
    """Dimension of the invariant subspace of the degree-d component,
    counted on orbits of monomials.

    Each generator sends a monomial to one monomial times a power of zeta,
    so the component splits into the orbits of the generators.  A walk
    from a base monomial gives each member x^nu a phase t(nu) mod m: an
    invariant supported on the orbit is a multiple of the sum of
    zeta^t(nu) * x^nu, which exists iff every image g . x^nu =
    zeta^phase * x^mu agrees, t(mu) = t(nu) + phase mod m, because zeta
    has order exactly m.  Each such orbit adds one dimension.
    ``max_entries`` caps the images walked: generators times monomials.
    """
    if action not in ("quasi", "classical"):
        raise ValueError(f"unknown action {action!r}")
    image = _quasi_image if action == "quasi" else _classical_image
    gens = generators(n, m)
    if len(gens) * comb(n + degree - 1, degree) > max_entries:
        raise ResourceLimitError(
            f"fixed-space system for n={n}, m={m}, degree={degree} exceeds cap"
        )
    phases: dict = {}
    dimension = 0
    for base in exponent_vectors(n, degree):
        if base in phases:
            continue
        phases[base] = 0
        stack = [base]
        consistent = True
        while stack:
            nu = stack.pop()
            t = phases[nu]
            for g in gens:
                mu, phase = image(g, nu)
                phase = (t + phase) % m
                if mu not in phases:
                    phases[mu] = phase
                    stack.append(mu)
                elif phases[mu] != phase:
                    consistent = False
        dimension += consistent
    return dimension
