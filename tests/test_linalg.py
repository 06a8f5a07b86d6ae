"""Sparse integer elimination against a dense field-elimination reference.

``rank`` takes sparse integer rows {column: int}.  A rational matrix
reaches it through ``sparse_int_rows``, and a matrix over Q(zeta_m) through
its regular representation first, whose rank over Q is phi(m) times the
rank over Q(zeta_m) that ``dense_rank`` finds by dividing in the field."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from quasicov.linalg import kernel_dimension, rank
from quasicov.scalars import Cyclotomic, euler_phi

ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]


def dense_rank(rows) -> int:
    """Dense Gaussian elimination over the field of the entries: the first
    row with a nonzero entry in the current column is the pivot.  Integers
    are read as Fractions so that ``/`` stays exact."""
    rows = [[Fraction(v) if isinstance(v, int) else v for v in r] for r in rows]
    rows = [r for r in rows if any(r)]
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


def sparse_int_rows(rows):
    """Dense rational rows as ``rank`` takes them: each row scaled by the lcm
    of its denominators, which keeps the row space, with its zeros dropped."""
    out = []
    for r in rows:
        den = lcm(*(Fraction(v).denominator for v in r))
        out.append({c: int(v * den) for c, v in enumerate(r) if v})
    return out


def regular_rows(rows, order):
    """Rows over Q of the regular representation of a matrix over
    Q(zeta_order): entry v becomes the phi x phi block of "multiply by v",
    whose column t holds the coefficients of zeta^t * v.  That is an
    injective ring map, so the rank is multiplied by phi."""
    phi = euler_phi(order)
    out = []
    for r in rows:
        blocks = [[(Cyclotomic.zeta(order, t) * v).coeffs for t in range(phi)]
                  for v in r]
        out += [[col[s] for block in blocks for col in block] for s in range(phi)]
    return out


small = st.integers(-3, 3)
rationals = st.builds(Fraction, small, st.integers(1, 4))


def scalars(order):
    """Entries over Q, or over Q(zeta_order) mixed with plain rationals."""
    if order is None:
        return rationals
    cyclotomic = st.lists(rationals, max_size=euler_phi(order) + 1).map(
        lambda cs: Cyclotomic(order, cs)
    )
    return st.one_of(rationals, cyclotomic)


@st.composite
def matrices(draw, order):
    """(base rows, the same rows with dependent and zero rows mixed in)."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), scalars(order))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        if base:
            coeffs = draw(st.lists(scalars(order), min_size=len(base), max_size=len(base)))
            combo = [0] * ncols
            for c, r in zip(coeffs, base):
                combo = [x + c * y for x, y in zip(combo, r)]
            extra.append(combo)
        else:
            extra.append([0] * ncols)
    return base, draw(st.permutations(base + extra))


@pytest.mark.parametrize("order", [None] + ORDERS)
@given(data=st.data())
def test_rank_matches_dense_reference(order, data):
    base, mixed = data.draw(matrices(order))
    expected = dense_rank(base)
    assert dense_rank(mixed) == expected
    if order is None:
        assert rank(sparse_int_rows(base)) == expected
        assert rank(sparse_int_rows(mixed)) == expected
    else:
        phi = euler_phi(order)
        assert rank(sparse_int_rows(regular_rows(base, order))) == phi * expected
        assert rank(sparse_int_rows(regular_rows(mixed, order))) == phi * expected


@given(data=st.data())
def test_rank_of_sparse_rows_in_any_key_order(data):
    ncols = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-50, 50))
    dense = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    rows = []
    for r in dense:
        columns = data.draw(st.permutations([c for c, v in enumerate(r) if v]))
        rows.append({c: r[c] for c in columns})
    assert rank(rows) == dense_rank(dense)
    # The caller's rows are left as they were.
    assert rows == sparse_int_rows(dense)


def test_integer_rows_are_exact():
    # In floating point 1 - 49 * (1 / 49) is not 0, so int rows must stay exact.
    assert rank([{0: 49, 1: 49}, {0: 1, 1: 1}]) == 1
    assert rank([{0: 1, 1: 1}, {0: 49, 1: 49}]) == 1


def test_empty_and_zero_inputs():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank(sparse_int_rows([[0, 0, 0], [Fraction(0)] * 3])) == 0
    assert rank(sparse_int_rows(regular_rows([[Cyclotomic.zero(3)] * 2], 3))) == 0


def test_cyclotomic_dependence():
    z = Cyclotomic.zeta(3)
    # The second row is z times the first: dependent over Q(zeta_3) although
    # independent over Q.  phi(3) = 2.
    assert dense_rank([[1, z], [z, z * z]]) == 1
    assert rank(sparse_int_rows(regular_rows([[1, z], [z, z * z]], 3))) == 2
    assert rank(sparse_int_rows(regular_rows([[1, z], [z, 1]], 3))) == 4


def test_non_rational_entries_are_rejected():
    for entry in (Cyclotomic.zeta(3), Cyclotomic.from_rational(4, 2), 0.5, "1"):
        with pytest.raises(TypeError):
            rank([{0: 1}, {0: 2, 1: entry}])
    with pytest.raises(TypeError):
        kernel_dimension([{0: Cyclotomic.zeta(3), 1: Cyclotomic.zeta(4)}], 2)


@pytest.mark.parametrize(
    "entry", [Fraction(1, 2), Fraction(4, 2), Cyclotomic.zeta(3), 0.5, "1"]
)
def test_rank_takes_int_entries_only(entry):
    # An integral Fraction is still not an int.
    with pytest.raises(TypeError):
        rank([{0: 3, 2: entry, 5: -1}])
    with pytest.raises(TypeError):
        rank([{1: entry}])


@pytest.mark.parametrize("order", [None, 3])
@given(data=st.data())
def test_kernel_dimension_is_columns_minus_rank(order, data):
    base, _ = data.draw(matrices(order))
    ncols = len(base[0]) if base else 4
    expected = ncols - dense_rank(base)
    if order is not None:
        phi = euler_phi(order)
        base, ncols, expected = regular_rows(base, order), phi * ncols, phi * expected
    assert kernel_dimension(sparse_int_rows(base), ncols) == expected
