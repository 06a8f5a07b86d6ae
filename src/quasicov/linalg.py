"""Exact Gaussian elimination over any field scalar (Fraction, Cyclotomic).

Rows are dense lists; entries only need truthiness, subtraction,
multiplication and division.  Pivoting picks the first row with a nonzero
entry in the current column, so results are deterministic.
"""

from __future__ import annotations

# Default cap on the dense entries of a linear system built for
# ``kernel_dimension``: the kernel-oracle and the fixed-space systems.
DEFAULT_MAX_MATRIX_ENTRIES = 1_000_000


def rank(rows) -> int:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        pv = pivot[col]
        for i in range(r + 1, len(rows)):
            v = rows[i][col]
            if not v:
                continue
            factor = v / pv
            row = rows[i]
            for j in range(col, ncols):
                if pivot[j]:
                    row[j] = row[j] - factor * pivot[j]
        r += 1
        if r == len(rows):
            break
    return r


def kernel_dimension(rows, ncols: int) -> int:
    """Dimension of the solution space of rows * x = 0."""
    return ncols - rank(rows)
