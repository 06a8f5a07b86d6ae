"""Exact rank over Q by sparse, integer, fraction-free elimination.

``rank`` takes sparse integer rows ``{column: int}`` holding no zeros, as
``hilbert`` builds them.  Each row is divided by the gcd of its entries,
which leaves the row space unchanged; an entry that is not an ``int`` makes
that gcd a ``TypeError``.  The caller's rows are not modified.

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

from math import gcd


def _divide_content(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def rank(rows) -> int:
    """Rank over Q of a matrix given as sparse integer rows."""
    pivots: dict[int, dict] = {}
    for row in sorted((_divide_content(dict(r)) for r in rows), key=len):
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
    return len(pivots)


def kernel_dimension(rows, ncols: int) -> int:
    """Dimension of the solution space of rows * x = 0."""
    return ncols - rank(rows)
