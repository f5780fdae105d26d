"""Exact linear algebra over integers and rationals.

Determinants and minors are integer-only (fraction-free Bareiss).  Rank and
row-space solves, whose answers are true rationals, use `fractions.Fraction`
Gauss-Jordan elimination.  No floating point anywhere.  Matrices are plain
lists of tuples/lists, small enough (n <= ~20) that asymptotics are
irrelevant next to exactness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from itertools import combinations


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
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


def rational_rank(rows) -> int:
    """Rank over Q of a matrix with int/Fraction entries."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def solve_in_row_space(basis_rows, target):
    """Coordinates c with c * basis_rows = target, or None if target is outside.

    Also None when basis_rows are linearly dependent: some coordinate then
    finds no pivot, so a non-None answer certifies independent rows.
    """
    k = len(basis_rows)
    if k == 0:
        return () if all(x == 0 for x in target) else None
    cols = len(basis_rows[0])
    # Solve the (k x k) normal-free system by picking k independent columns.
    m = [[Fraction(basis_rows[i][j]) for i in range(k)] for j in range(cols)]
    aug = [row + [Fraction(t)] for row, t in zip(m, target)]
    # Gaussian elimination on the (cols x k) system.
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, cols) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(cols):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    for i in range(row, cols):
        if aug[i][k] != 0:
            return None
    return tuple(aug[i][k] for i in range(k))


def max_minor_gcd(rows) -> int:
    """gcd of all maximal minors of a full-row-rank integer matrix.

    Equals the index of the row lattice inside Z^n intersected with the row
    span, so the value 1 certifies a lattice basis (unimodularity).
    """
    k = len(rows)
    if k == 0:
        return 1
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = gcd(g, abs(bareiss_det(sub)))
        if g == 1:
            return 1
    return g


def affinely_independent(points) -> bool:
    """Whether the rational points are affinely independent."""
    if len(points) <= 1:
        return True
    base = points[0]
    diffs = [tuple(Fraction(a) - Fraction(b) for a, b in zip(p, base)) for p in points[1:]]
    return rational_rank(diffs) == len(diffs)
