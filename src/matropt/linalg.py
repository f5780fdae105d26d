"""Exact linear algebra over the integers.

Determinants come from fraction-free Bareiss elimination.  Rank, span
membership and kernel vectors all come from one fraction-free row
reduction with gcd normalisation (`_extend`).  Every routine takes integer
entries: a true rational arrives only through the parser or
`vector_matroid`, which scales each column to integers (`_integral`)
before anything here sees it.  No floating point anywhere.  Matrices are
plain lists of tuples/lists, small enough (n <= ~20) that asymptotics are
irrelevant next to exactness.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index

from .errors import DimensionError


def bareiss_det(rows) -> int:
    """Determinant of a square int matrix by fraction-free elimination; any
    other entry raises DimensionError, as `//` would floor its quotients."""
    n = len(rows)
    if n == 0:
        return 1
    try:
        m = [list(map(index, r)) for r in rows]
    except TypeError:
        raise DimensionError("Bareiss elimination takes int entries") from None
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _integral(row):
    """An int/Fraction row scaled to integers by the lcm of its denominators."""
    # A list, not a generator: CPython builds the argument tuple of a
    # generator by resizing, which bypasses and then overfills the tuple
    # free list, holding on to memory across the hot loops.
    scale = lcm(*[x.denominator for x in row])
    return [x.numerator * (scale // x.denominator) for x in row]


def _reduce(echelon, row):
    """Row minus its part in the span of the echelon rows, scaled to stay
    integral: zero exactly when the row lies in that span."""
    for col, e in echelon:
        x = row[col]
        if x:
            p = e[col]
            row = [a * p - x * b for a, b in zip(row, e)]
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
    return row


def _extend(echelon, row, width=None):
    """Reduce an integer row against the echelon and append it with its
    pivot column when it leaves the span on its first `width` columns.

    Returns None when the row was appended, else the reduced row.  That is
    an integer combination of this row and the echelon rows, so tag columns
    past `width` record the combination that cancelled it.
    """
    row = _reduce(echelon, row)
    for col, x in enumerate(row[:width]):
        if x:
            echelon.append((col, row))
            return None
    return row


def integer_rank(rows) -> int:
    """Rank of an integer matrix."""
    echelon: list = []
    for row in rows:
        _extend(echelon, row)
    return len(echelon)


def _null_vector(rows, d):
    """Nonzero integer x with rows * x = 0 for a (d-1) x d integer matrix
    of rank d - 1, else None.

    Column j enters tagged with the unit vector e_j; the first column that
    falls in the span of the earlier ones carries the combination of columns
    that vanishes, which is the kernel vector.
    """
    echelon: list = []
    normal = None
    for j in range(d):
        rest = _extend(echelon, [*(r[j] for r in rows), *_unit(j, d)], d - 1)
        if normal is None and rest is not None:
            normal = rest[d - 1:]
    return normal if len(echelon) == d - 1 else None


def _unit(i, k):
    return [int(j == i) for j in range(k)]

