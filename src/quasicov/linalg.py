"""Exact rank by sparse, integer, fraction-free elimination.

``rank`` takes dense rows of ``int``, ``Fraction`` or ``Cyclotomic`` and
keeps only their nonzeros, as rows ``{column: int}``:

- A rational row is scaled by the lcm of its denominators and divided by
  the gcd of its entries, which leaves the row space unchanged.
- Over Q(zeta_m) every entry v, rational ones included, becomes the
  phi(m) x phi(m) block of "multiply by v" on the power basis
  1, z, ..., z^(phi-1) (``scalars.multiplication_block``: block column t,
  row s holds coefficient s of v * zeta^t).  This regular representation
  is an injective ring map Q(zeta_m) -> Q^(phi x phi), so a matrix of rank
  r over Q(zeta_m) becomes one of rank phi * r over Q.  Entries of two
  different orders are an error.

Elimination is fraction-free: it divides only by gcds, exactly.  Rows are
taken fewest nonzeros first (a stable sort, so the order is deterministic);
a row's leading column is its largest one.  Each row is reduced against
the pivot stored for its leading column by
row <- (a/g) * row - (b/g) * pivot, where a and b are the two leading
entries and g = gcd(a, b), and then divided by the gcd of its entries.  A
row that does not reduce to zero becomes the pivot of its new leading
column; the rank is the number of pivots.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Cyclotomic, euler_phi, multiplication_block

# Default cap on the dense entries of a linear system built for
# ``kernel_dimension``: the kernel-oracle and the fixed-space systems.
DEFAULT_MAX_MATRIX_ENTRIES = 1_000_000


def _primitive(row: dict) -> dict:
    """The integer row with coprime entries on the same line as ``row``,
    whose entries may be ints or Fractions."""
    den = lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    return _divide_content(row)


def _divide_content(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _integer_rows(rows) -> tuple[list, int]:
    """Sparse integer rows over Q whose rank is ``scale`` times the rank of
    ``rows``; ``scale`` is phi(m) over Q(zeta_m) and 1 over Q."""
    sparse = []
    order = None
    for r in rows:
        entries = {c: v for c, v in enumerate(r) if v}
        for v in entries.values():
            if isinstance(v, Cyclotomic):
                if order is None:
                    order = v.order
                elif v.order != order:
                    raise ValueError(
                        f"cyclotomic order mismatch: {order} vs {v.order}"
                    )
        if entries:
            sparse.append(entries)
    if order is None:
        return [_primitive(r) for r in sparse], 1
    phi = euler_phi(order)
    blocks: dict = {}
    out = []
    for entries in sparse:
        placed = []
        for c, v in entries.items():
            block = blocks.get(v)
            if block is None:
                block = blocks[v] = multiplication_block(v, order)
            placed.append((c * phi, block))
        for s in range(phi):
            row = {base + t: x for base, block in placed for t, x in block[s]}
            if row:
                out.append(_primitive(row))
    return out, phi


def rank(rows) -> int:
    """Rank of a matrix given as dense rows over Q or one Q(zeta_m)."""
    int_rows, scale = _integer_rows(rows)
    int_rows.sort(key=len)
    pivots: dict[int, dict] = {}
    for row in int_rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                w = row.get(c, 0) - b * v
                if w:
                    row[c] = w
                else:
                    del row[c]
            if row:
                row = _divide_content(row)
    return len(pivots) // scale


def kernel_dimension(rows, ncols: int) -> int:
    """Dimension of the solution space of rows * x = 0."""
    return ncols - rank(rows)
