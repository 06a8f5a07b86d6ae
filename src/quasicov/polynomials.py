"""Sparse exact multivariate polynomials in x1..xn under lexicographic order.

Terms are kept in a dict keyed by exponent vectors (tuples of naturals).
Exponent tuples of equal length compare lexicographically under Python's
native tuple order, which is exactly the monomial order used throughout:
nu > mu iff the first nonzero entry of nu - mu is positive.  Zero
coefficients are never stored: the constructor drops them, so operations
accumulate terms without watching for cancellation, and the zero polynomial
has an empty term dict.
Polynomials are immutable values: every operation returns a new object.

Coefficients are either ``Fraction`` (ideal and Groebner computations) or
``Cyclotomic`` (group-action computations); ``promote_to_cyclotomic`` embeds
the former into the latter.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .scalars import Cyclotomic


def exponent_vectors(nvars: int, degree: int) -> list:
    """All exponent vectors of the given total degree, ascending lex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec([], degree, nvars)
    return out


def degree_histogram(vectors) -> list:
    """Number of exponent vectors of each total degree 0..top."""
    if not vectors:
        return []
    top = max(sum(nu) for nu in vectors)
    hist = [0] * (top + 1)
    for nu in vectors:
        hist[sum(nu)] += 1
    return hist


def _coerce_scalar(c):
    if isinstance(c, (Fraction, Cyclotomic)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Polynomial:
    """A sparse polynomial with exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or min(exps, default=0) < 0:
                raise ValueError(f"bad exponent vector {exps} for nvars={nvars}")
            coeff = _coerce_scalar(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """x_index with 1-based index."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exps, coeff=1) -> "Polynomial":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_monomial(self):
        """(exponent vector, coefficient) of the lex-greatest term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        nu = max(self.terms)
        return nu, self.terms[nu]

    def sorted_terms(self):
        """Terms in descending lex order."""
        return [(nu, self.terms[nu]) for nu in sorted(self.terms, reverse=True)]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    # ---- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc[exps] = acc[exps] + coeff if exps in acc else coeff
        return Polynomial(self.nvars, acc)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = _coerce_scalar(other)
            return Polynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        acc: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                acc[key] = acc[key] + ca * cb if key in acc else ca * cb
        return Polynomial(self.nvars, acc)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- transformations ----------------------------------------------

    def substitute_power(self, m: int) -> "Polynomial":
        """Replace every variable x_i by x_i^m (exponent scaling)."""
        if m < 1:
            raise ValueError(f"power substitution needs m >= 1, got {m}")
        if m == 1:
            return self
        return Polynomial(
            self.nvars,
            {tuple(m * e for e in exps): c for exps, c in self.terms.items()},
        )

    def __repr__(self):
        return f"Polynomial({self.nvars}, {render_polynomial(self)!r})"

    def __str__(self):
        return render_polynomial(self)


def promote_to_cyclotomic(p: Polynomial, order: int) -> Polynomial:
    """Embed rational coefficients into Q(zeta_order).

    A polynomial whose coefficients all lie in Q(zeta_order) already is
    returned as it is: polynomials are immutable, so sharing it is safe.
    """
    if all(
        isinstance(c, Cyclotomic) and c.order == order for c in p.terms.values()
    ):
        return p
    terms = {}
    for exps, coeff in p.terms.items():
        if isinstance(coeff, Cyclotomic):
            if coeff.order != order:
                raise ValueError(
                    f"cannot promote order-{coeff.order} coefficients to order {order}"
                )
            terms[exps] = coeff
        else:
            terms[exps] = Cyclotomic.from_rational(order, coeff)
    return Polynomial(p.nvars, terms)


def apply_diff(p: Polynomial, q: Polynomial) -> Polynomial:
    """p applied as a constant-coefficient differential operator to q."""
    p._check_compatible(q)
    acc: dict = {}
    for kappa, c in p.terms.items():
        for nu, d in q.terms.items():
            if any(k > n for k, n in zip(kappa, nu)):
                continue
            factor = 1
            for k, n in zip(kappa, nu):
                # falling factorial n * (n-1) * ... * (n-k+1)
                for i in range(k):
                    factor *= n - i
            key = tuple(n - k for k, n in zip(kappa, nu))
            acc[key] = acc[key] + c * d * factor if key in acc else c * d * factor
    return Polynomial(p.nvars, acc)


def scalar_product(p: Polynomial, q: Polynomial):
    """<p, q> = (p(d/dx1, ..., d/dxn) q)(0); monomials are orthogonal with
    <X^nu, X^nu> = prod(nu_i!)."""
    result = apply_diff(p, q)
    return result.coefficient((0,) * p.nvars)


def exponent_factorial(nu) -> int:
    out = 1
    for e in nu:
        out *= math.factorial(e)
    return out


# ---- text form ---------------------------------------------------------

def _monomial_text(exps) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(parts)


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form: descending lex terms joined by " + " / " - "."""
    if not p.terms:
        return "0"
    rendered = []
    for exps, coeff in p.sorted_terms():
        mon = _monomial_text(exps)
        value = coeff
        if isinstance(coeff, Cyclotomic):
            if not coeff.is_rational():
                body = f"({coeff})*{mon}" if mon else f"({coeff})"
                rendered.append((False, body))
                continue
            value = coeff.rational_value()
        negative = (value if type(value) is int else value.numerator) < 0
        mag = -value if negative else value
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = mon
        else:
            body = f"{mag}*{mon}"
        rendered.append((negative, body))
    first_neg, first_body = rendered[0]
    out = ("-" if first_neg else "") + first_body
    for negative, body in rendered[1:]:
        out += (" - " if negative else " + ") + body
    return out


_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
# A denominator needs a nonzero digit, so "1/0" is a parse error.
_RATIONAL = re.compile(r"^-?\d+(?:/\d*[1-9]\d*)?$")


def parse_polynomial(text: str, nvars: int, order: int | None = None) -> Polynomial:
    """Parse the grammar produced by ``render_polynomial``.

    With ``order`` set, coefficients live in Q(zeta_order): parenthesized
    cyclotomic literals are accepted and bare rationals are promoted.
    """
    s = text.strip()
    if s in ("", "0"):
        return Polynomial.zero(nvars)
    chunks = s.replace(" - ", " + -").split(" + ")
    acc: dict = {}
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        negate = False
        if chunk.startswith("-") and not chunk.startswith("-("):
            negate = True
            chunk = chunk[1:]
        parts = chunk.split("*")
        first = parts[0]
        coeff = None
        idx = 0
        if first.startswith("(") and first.endswith(")"):
            if order is None:
                raise ValueError(
                    f"cyclotomic literal {first!r} needs a cyclotomic order"
                )
            coeff = Cyclotomic.parse(order, first[1:-1])
            idx = 1
        elif _RATIONAL.match(first):
            coeff = Fraction(first) if "/" in first else int(first)
            idx = 1
        exps = [0] * nvars
        for part in parts[idx:]:
            match = _FACTOR.match(part)
            if not match:
                raise ValueError(f"cannot parse factor {part!r} in {text!r}")
            var, power = match.groups()
            i = int(var)
            if not 1 <= i <= nvars:
                raise ValueError(f"variable x{i} out of range 1..{nvars}")
            exps[i - 1] += int(power) if power else 1
        if coeff is None:
            if idx == 0 and len(parts) == 1 and not _FACTOR.match(first):
                raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
            coeff = 1
        if negate:
            coeff = -coeff
        if order is not None and not isinstance(coeff, Cyclotomic):
            coeff = Cyclotomic.from_rational(order, coeff)
        key = tuple(exps)
        acc[key] = acc[key] + coeff if key in acc else coeff
    return Polynomial(nvars, acc)
