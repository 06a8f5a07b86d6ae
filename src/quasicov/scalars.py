"""Exact scalar arithmetic: rationals and cyclotomic numbers.

Rationals are ``fractions.Fraction``: arbitrary precision, always in lowest
terms with a positive denominator, so equality is structural.

A cyclotomic number of order m is an element of Q(zeta_m), stored as a
coefficient vector in the power basis 1, z, ..., z^(phi(m)-1) of
Q[z]/(Phi_m(z)).  Reducing modulo the m-th cyclotomic polynomial Phi_m
(rather than z^m - 1) keeps the quotient a field: every nonzero element is
invertible, and the class of z has multiplicative order exactly m.  Each
coefficient is canonical: an ``int`` when it is integral and a
``Fraction`` otherwise, never a ``Fraction`` with denominator 1.  Since
``1 == Fraction(1)`` and both hash alike, equality and hashing stay
structural, and the integral values that the group actions and the text
form mostly meet are computed in plain integer arithmetic.

The API is that of a ring: +, -, * and ``times_zeta``, with no ``/`` and
no ``**``, since no computation here divides scalars.  Products are reduced
by the monic integer Phi_m, so no operation divides polynomials.
Multiplying by zeta^k, the only product the group actions need, is a shift
of the coefficients by k mod m followed by that reduction.  ``inverse``
(the norm map) has no caller in the package; it stays only because
``perfbench/tracing.py`` patches it to count calls.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient function."""
    if m < 1:
        raise ValueError(f"euler_phi requires m >= 1, got {m}")
    result = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


def _canonical(c):
    """c as an int when it is integral, else as a Fraction in lowest terms."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _mobius(k: int) -> int:
    """The Moebius function: 0 unless k is squarefree, else (-1)^(primes)."""
    sign = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending; monic of degree phi(m).

    Computed in integers from the Moebius form of z^m - 1 = prod_{d | m}
    Phi_d, that is Phi_m = prod_{d | m} (z^d - 1)^mu(m/d): multiply by the
    binomials with mu = 1, then divide exactly, by synthetic division, by
    those with mu = -1.
    """
    if m < 1:
        raise ValueError(f"cyclotomic polynomial needs m >= 1, got {m}")
    mu = {d: _mobius(m // d) for d in range(1, m + 1) if m % d == 0}
    poly = [1]
    for d in mu:
        if mu[d] == 1:
            product = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                product[i + d] += c
            poly = product
    for d in mu:
        if mu[d] == -1:
            # poly = q * (z^d - 1) gives q[i] = q[i - d] - poly[i], from the bottom
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
    return tuple(poly)


def _reduce_mod_phi(coeffs: list, order: int) -> list:
    """Canonical coefficients of the remainder of ``coeffs`` modulo Phi_m.

    Phi_m is monic with integer coefficients, so the division needs no
    quotient by its leading coefficient and keeps integers integral.
    """
    phi_m = cyclotomic_polynomial(order)
    phi = len(phi_m) - 1
    tail = [(i, p) for i, p in enumerate(phi_m[:phi]) if p]
    cs = list(coeffs)
    for top in range(len(cs) - 1, phi - 1, -1):
        c = cs[top]
        if c:
            shift = top - phi
            for i, p in tail:
                cs[shift + i] -= c * p
    return [_canonical(c) for c in cs[:phi]]


class Cyclotomic:
    """An element of Q(zeta_m) in canonical reduced form.

    ``coeffs`` always has length exactly phi(m), so representations are
    unique and equality is structural.  Instances are immutable; arithmetic
    returns new objects.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError(f"cyclotomic order must be >= 1, got {order}")
        phi = euler_phi(order)
        cs = [c if type(c) is int else _canonical(c) for c in coeffs]
        if len(cs) > phi:
            cs = _reduce_mod_phi(cs, order)
        cs += [0] * (phi - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls(order, (1,))

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        return cls(order, (value,))

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclotomic":
        """The class of z^power, i.e. zeta_m to the given power."""
        k = power % order
        return cls(order, (0,) * k + (1,))

    def times_zeta(self, power: int) -> "Cyclotomic":
        """self * zeta^power: the coefficients shifted up by power mod m,
        which ``__init__`` reduces by Phi_m."""
        k = power % self.order
        return Cyclotomic(self.order, (0,) * k + self.coeffs) if k else self

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int | Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.order, _poly_mul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/a by the norm map.  The conjugates sigma_j(a), z -> z^j for j
        coprime to m, multiply to the rational norm N(a), so 1/a is the
        product of the conjugates other than a itself, divided by N(a).
        The product is taken over a scaled to integers, so no step
        divides."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        m = self.order
        den = lcm(*(c.denominator for c in self.coeffs))
        a = [c.numerator * (den // c.denominator) for c in self.coeffs]
        others = [1]
        for j in range(2, m):
            if gcd(j, m) == 1:
                conjugate = [0] * m
                for i, c in enumerate(a):
                    conjugate[i * j % m] += c
                conjugate = _reduce_mod_phi(conjugate, m)
                others = _reduce_mod_phi(_poly_mul(others, conjugate), m)
        # Phi_m is irreducible, so the norm of a nonzero a is a nonzero integer.
        norm = _reduce_mod_phi(_poly_mul(a, others), m)[0]
        return Cyclotomic(m, [Fraction(c * den, norm) for c in others])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            if self.order == other.order:
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.coeffs[0] == other.coeffs[0]
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # Rational-valued elements hash like their Fraction so that equal
        # values hash equally across orders and against plain rationals.
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self})"

    def __str__(self):
        pieces = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            negative = (c if type(c) is int else c.numerator) < 0
            sign = "-" if negative else "+"
            mag = -c if negative else c
            if i == 0:
                body = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            pieces.append((sign, body))
        if not pieces:
            return "0"
        out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    # Terms start at every sign past the first character.
    _SIGN = re.compile(r"(?<=.)(?=[+-])", re.DOTALL)
    # A denominator needs a nonzero digit, so "1/0" is a parse error.
    _TERM = re.compile(
        r"^(?P<coef>\d+(?:/\d*[1-9]\d*)?)?(?:(?P<z>z)(?:\^(?P<exp>\d+))?)?$"
    )

    @classmethod
    def parse(cls, order: int, text: str) -> "Cyclotomic":
        """Parse the format produced by ``str``, e.g. ``-1-z`` or ``1/2+z^2``."""
        if order < 1:
            raise ValueError(f"cyclotomic order must be >= 1, got {order}")
        s = text.strip().replace(" ", "")
        if s in ("", "0"):
            return cls.zero(order)
        acc: dict = {}
        for chunk in cls._SIGN.split(s):
            sign = 1
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign = -1
                chunk = chunk[1:]
            match = cls._TERM.match(chunk)
            coef, z, exp = match.groups() if match else (None, None, None)
            if coef is None and z is None:
                raise ValueError(f"cannot parse cyclotomic term {chunk!r} in {text!r}")
            if coef is None:
                coef = 1
            else:
                coef = Fraction(coef) if "/" in coef else int(coef)
            # z^order = 1, so the list below stays shorter than order.
            exp = int(exp or 1) % order if z else 0
            acc[exp] = acc.get(exp, 0) + sign * coef
        top = max(acc)
        return cls(order, [acc.get(i, 0) for i in range(top + 1)])
