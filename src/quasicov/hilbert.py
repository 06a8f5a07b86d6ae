"""Hilbert series of the quotient and the independent kernel oracle.

Three routes to the graded dimensions are implemented: counting standard
monomials by degree, the closed formulas, and an orthogonal-complement
oracle.  SC = I^perp under <X^nu, X^mu> = delta * nu!, so dim SC_d =
dim Q[x]_d - dim I_d.  The oracle never touches the Groebner engine: it
ranks the span of I_d, the generator multiples X^mu * g as sparse integer
rows over the degree-d monomials, exactly over Q.  The pairing's nu! is
left out: it would only scale columns, which changes no rank or pivot set.

Every generator, M_alpha(x^m) or e_k(x^m), lies in Q[x^m], and Q[x] is
free over Q[x^m] with basis {x^alpha : 0 <= alpha_i < m}.  A product
x^mu * g keeps the residue mu mod m in every exponent, so the system of
each degree is block-diagonal by residue: block (alpha, k) has the columns
x^(alpha + m*beta) with |beta| = k, in degree |alpha| + m*k.  Dividing
its rows and columns by x^alpha and putting y = x^m leaves the degree-k
system of (n, 1), so every block (alpha, k) has the kernel dimension of
the (n, 1) block at level k.  The oracle still ranks each block with its
own lift and indexing, which checks the generator construction at m >= 2.
It walks each residue for k = 0, 1, ... and stops at the first zero
kernel: a zero kernel at (alpha, k) puts every x^(alpha + m*beta) with
|beta| = k in the ideal, and multiplying by each x_i^m puts every one with
|beta| = k + 1 there too, so the later kernels of the block are zero.

The closed series uses the residue-expanded prefactor
((1 - t^m) / (1 - t))^n.  The single-prefactor variant (exponent 1) is also
provided for side-by-side comparison: it totals m * C_n instead of
m^n * C_n, so it cannot be the Hilbert series once n >= 2 and m >= 2, and
callers are expected to surface that mismatch rather than hide it.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import DEFAULT_MAX_MATRIX_ENTRIES, ResourceLimitError
from .linalg import kernel_dimension
from .polynomials import exponent_vectors
from .qsym import (
    compositions_of,
    count_compositions,
    elementary_symmetric_power,
    monomial_qsym,
)
from .scalars import _poly_mul


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
        prefactor = _poly_mul(prefactor, [1] * m)
    dyck = dyck_series(n).coefficients
    stretched = [0] * ((len(dyck) - 1) * m + 1)
    for k, c in enumerate(dyck):
        stretched[k * m] = c
    return HilbertSeries.from_coefficients(_poly_mul(prefactor, stretched))


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


def _level_counts(n: int, k: int, ideal: str) -> list:
    """(j, count) of the ideal generators of degree m*j for j = 1..k,
    counted without building them: M_alpha(x^m) for the compositions alpha
    of j into at most n parts, and e_j(x^m) for j <= n."""
    if ideal == "quasi":
        return [(j, count_compositions(j, n)) for j in range(1, k + 1)]
    if ideal == "classical":
        return [(j, 1) for j in range(1, min(n, k) + 1)]
    raise ValueError(f"unknown ideal kind {ideal!r}")


def _level_generators(n: int, m: int, j: int, ideal: str) -> list:
    """The term lists [(exponent, coefficient)] of the ideal generators of
    degree m*j: M_alpha(x^m) for |alpha| = j, or e_j(x^m)."""
    if ideal == "quasi":
        gens = [monomial_qsym(a, n).substitute_power(m) for a in compositions_of(j, n)]
    else:
        gens = [elementary_symmetric_power(j, n, m)] if j <= n else []
    # Every coefficient is 1, so each is kept as an int: rank takes integer rows.
    return [[(kappa, c.numerator) for kappa, c in g.terms.items()] for g in gens]


def _residues(n: int, m: int, s: int):
    """The residues alpha in {0..m-1}^n with |alpha| = s, ascending lex, one
    at a time: the successor raises the last entry i below m - 1 with a
    positive sum r after it, and packs r - 1 to the right of i."""
    top = m - 1
    if not 0 <= s <= n * top:
        return
    alpha, i, rest = [0] * n, -1, s
    while True:
        for j in range(n - 1, i, -1):
            alpha[j] = min(top, rest)
            rest -= alpha[j]
        yield tuple(alpha)
        i = n - 1
        while i >= 0 and not (rest and alpha[i] < top):
            rest += alpha[i]
            i -= 1
        if i < 0:
            return
        alpha[i] += 1
        rest -= 1


def _block_kernel_dim(n, m, alpha, k, ideal, max_entries, generators) -> int:
    """Kernel dimension of block (alpha, k): its column count minus the
    rank of the span of I in that block.

    Its rows are the products X^mu * g with mu = alpha + m*beta', one for
    each generator g of degree m*j and each |beta'| = k - j, each stored as
    {column of nu: coefficient of X^nu in X^mu * g}.  The block's size,
    rows times columns, is counted before anything is built.
    ``generators`` holds the generators built so far, by level j.
    """
    ncols = comb(n + k - 1, k)
    nrows = sum(
        count * comb(n + k - j - 1, k - j) for j, count in _level_counts(n, k, ideal)
    )
    if nrows * ncols > max_entries:
        raise ResourceLimitError(
            f"kernel system for n={n}, m={m}, degree={sum(alpha) + m * k} "
            f"exceeds cap of {max_entries} entries"
        )
    while len(generators) < k:
        generators.append(_level_generators(n, m, len(generators) + 1, ideal))

    def lift(beta):
        return tuple([a + m * b for a, b in zip(alpha, beta)])

    index = {lift(beta): i for i, beta in enumerate(exponent_vectors(n, k))}
    rows = []
    for j in range(1, k + 1):
        shifts = [lift(beta) for beta in exponent_vectors(n, k - j)]
        for terms in generators[j - 1]:
            for mu in shifts:
                rows.append({
                    index[tuple([a + b for a, b in zip(mu, kappa)])]: c
                    for kappa, c in terms
                })
    return kernel_dimension(rows, ncols)


def coinvariant_kernel_dim(
    n: int,
    m: int,
    degree: int,
    ideal: str = "quasi",
    max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES,
) -> int:
    """Dimension of the homogeneous polynomials of the given degree that are
    annihilated by every ideal generator applied as a differential operator:
    the sum of the kernels of the residue blocks in that degree."""
    generators: list = []
    return sum(
        _block_kernel_dim(n, m, alpha, (degree - s) // m, ideal, max_entries, generators)
        for s in range(degree % m, min(degree, n * (m - 1)) + 1, m)
        for alpha in _residues(n, m, s)
    )


def kernel_dims_by_residue(
    n: int,
    m: int,
    ideal: str = "quasi",
    max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES,
) -> dict:
    """{alpha: [kernel dimension of block (alpha, k) for k = 0, 1, ...]} for
    every residue alpha, each list ending before its block's first zero."""
    safety = 4 * m * n + 4
    generators: list = []
    out = {}
    for s in range(n * (m - 1) + 1):
        for alpha in _residues(n, m, s):
            dims = out[alpha] = []
            for k in range((safety - s) // m + 1):
                d = _block_kernel_dim(n, m, alpha, k, ideal, max_entries, generators)
                if d == 0:
                    break
                dims.append(d)
            else:
                raise RuntimeError(
                    f"quotient for n={n}, m={m}, ideal={ideal} "
                    f"did not terminate by degree {safety}"
                )
    return out


def kernel_dims_until_zero(
    n: int,
    m: int,
    ideal: str = "quasi",
    max_entries: int = DEFAULT_MAX_MATRIX_ENTRIES,
) -> list:
    """Kernel dimensions for degree 0, 1, 2, ... up to the last nonzero one:
    ``kernel_dims_by_residue`` summed by degree."""
    dims: list = []
    for alpha, block in kernel_dims_by_residue(n, m, ideal, max_entries).items():
        for k, d in enumerate(block):
            degree = sum(alpha) + m * k
            dims.extend([0] * (degree + 1 - len(dims)))
            dims[degree] += d
    return dims
