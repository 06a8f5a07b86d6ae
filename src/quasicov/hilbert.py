"""Hilbert series of the quotient and the independent kernel oracle.

Three routes to the graded dimensions are implemented: counting standard
monomials by degree, the closed formulas, and an orthogonal-complement
oracle that finds the homogeneous polynomials annihilated by every ideal
generator acting as a differential operator.  The oracle never touches the
Groebner engine: it builds, degree by degree, the matrix of generator
multiples paired against the monomial basis and takes an exact kernel rank
over Q.

The closed series uses the residue-expanded prefactor
((1 - t^m) / (1 - t))^n.  The single-prefactor variant (exponent 1) is also
provided for side-by-side comparison: it totals m * C_n instead of
m^n * C_n, so it cannot be the Hilbert series once n >= 2 and m >= 2, and
callers are expected to surface that mismatch rather than hide it.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import ResourceLimitError
from .linalg import DEFAULT_MAX_MATRIX_ENTRIES, kernel_dimension
from .paths import catalan
from .polynomials import exponent_factorial, exponent_vectors
from .qsym import elementary_symmetric_power, quasi_invariant_generators


class HilbertSeries(namedtuple("HilbertSeries", "coefficients")):
    """The coefficient of t^k at index k; trailing zeros trimmed."""

    __slots__ = ()

    @classmethod
    def from_coefficients(cls, coefficients) -> "HilbertSeries":
        cs = list(coefficients)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    def total(self) -> int:
        return sum(self.coefficients)

    def coefficient(self, k: int) -> int:
        return self.coefficients[k] if 0 <= k < len(self.coefficients) else 0

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                parts.append(t if c == 1 else f"{c}{t}")
        return " + ".join(parts) if parts else "0"


def series_from_monomials(monomial_set) -> HilbertSeries:
    """Degree histogram of a complete standard-monomial set."""
    if not monomial_set.complete:
        raise ValueError("standard-monomial set is not certified complete")
    return HilbertSeries.from_coefficients(monomial_set.degree_histogram())


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def dyck_series(n: int) -> HilbertSeries:
    """Closed form for m = 1: coefficient k is the ballot number
    (n-k)/(n+k) * C(n+k, k), counting Dyck vectors of degree k; the total
    is the Catalan number."""
    if n < 1:
        raise ValueError(f"dyck_series needs n >= 1, got {n}")
    coefficients = []
    for k in range(n):
        num = (n - k) * comb(n + k, k)
        assert num % (n + k) == 0
        coefficients.append(num // (n + k))
    return HilbertSeries.from_coefficients(coefficients)


def _prefactor_series(n: int, m: int, power: int) -> HilbertSeries:
    """((1 - t^m)/(1 - t))^power * dyck_series(t^m)."""
    prefactor = [1]
    for _ in range(power):
        prefactor = _poly_mul_int(prefactor, [1] * m)
    dyck = dyck_series(n).coefficients
    stretched = [0] * ((len(dyck) - 1) * m + 1)
    for k, c in enumerate(dyck):
        stretched[k * m] = c
    return HilbertSeries.from_coefficients(_poly_mul_int(prefactor, stretched))


def quotient_series(n: int, m: int) -> HilbertSeries:
    """((1 - t^m)/(1 - t))^n * dyck_series(t^m): the residue part contributes
    (1 + t + ... + t^(m-1)) once per variable.  Totals m^n * catalan(n)."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    return _prefactor_series(n, m, n)


def single_prefactor_series(n: int, m: int) -> HilbertSeries:
    """(1 - t^m)/(1 - t) * dyck_series(t^m) with the prefactor to the first
    power only; totals m * catalan(n)."""
    return _prefactor_series(n, m, 1)


def _ideal_generators(n: int, m: int, max_deg: int, ideal: str):
    if ideal == "quasi":
        return quasi_invariant_generators(n, m, max_deg)
    return [
        elementary_symmetric_power(k, n, m)
        for k in range(1, n + 1)
        if k * m <= max_deg
    ]


def _generator_degrees(n: int, m: int, max_deg: int, ideal: str) -> list:
    """(degree, count) of the generators of ``_ideal_generators`` for each
    degree, counted without building them: M_alpha(x^m) for the
    compositions alpha of k into at most n parts, and e_k(x^m) for k <= n."""
    if ideal == "quasi":
        return [
            (m * k, sum(comb(k - 1, j - 1) for j in range(1, min(k, n) + 1)))
            for k in range(1, max_deg // m + 1)
        ]
    if ideal == "classical":
        return [(m * k, 1) for k in range(1, min(n, max_deg // m) + 1)]
    raise ValueError(f"unknown ideal kind {ideal!r}")


def coinvariant_kernel_dim(
    n: int,
    m: int,
    degree: int,
    ideal: str = "quasi",
    max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES,
) -> int:
    """Dimension of the homogeneous polynomials of the given degree that are
    annihilated by every ideal generator applied as a differential operator.

    A product X^mu * g of degree d pairs against P = sum c_nu X^nu through
    <X^nu, X^nu> = nu!, so each product contributes the linear condition
    sum over nu of (coefficient of X^nu in X^mu * g) * nu! * c_nu = 0.
    The system's size is counted before anything is built: one row per
    product, one column per degree-d monomial.
    """
    ncols = comb(n + degree - 1, degree)
    nrows = sum(
        count * comb(n + degree - gdeg - 1, degree - gdeg)
        for gdeg, count in _generator_degrees(n, m, degree, ideal)
    )
    if nrows and nrows * ncols > max_entries:
        raise ResourceLimitError(
            f"kernel system for n={n}, m={m}, degree={degree} "
            f"exceeds cap of {max_entries} entries"
        )
    monomials = exponent_vectors(n, degree)
    index = {nu: i for i, nu in enumerate(monomials)}
    rows = []
    for g in _ideal_generators(n, m, degree, ideal):
        gdeg = g.degree()
        for mu in exponent_vectors(n, degree - gdeg):
            row = [0] * len(monomials)
            for kappa, c in g.terms.items():
                nu = tuple(a + b for a, b in zip(mu, kappa))
                row[index[nu]] = c * exponent_factorial(nu)
            rows.append(row)
    return kernel_dimension(rows, len(monomials))


def kernel_dims_until_zero(
    n: int,
    m: int,
    ideal: str = "quasi",
    max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES,
) -> list:
    """Kernel dimensions for degree 0, 1, 2, ... stopping at the first zero.

    The quotient is a graded algebra generated in degree one, so an empty
    degree stays empty above it and the list captures the whole series.
    """
    safety = 4 * m * n + 4
    dims = []
    for k in range(safety + 1):
        d = coinvariant_kernel_dim(n, m, k, ideal=ideal, max_entries=max_entries)
        if d == 0:
            return dims
        dims.append(d)
    raise RuntimeError(
        f"quotient for n={n}, m={m}, ideal={ideal} did not terminate by degree {safety}"
    )
