"""Criteria matrices, projections of bases and their bounding box,
objectives, and Pareto filtering.

Weights are restricted to integers so projected points compare exactly;
minimization is the canonical direction (negate rows for maximization).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .matroid import Matroid, greedy_max_basis


@dataclass(frozen=True)
class WeightMatrix:
    """d x n integer criteria matrix; rows are individual weightings.  A
    plain value: a search keeps its own projections (`heuristics._search_run`)."""

    rows: tuple

    def __post_init__(self):
        if any(x != int(x) for row in self.rows for x in row):
            raise DimensionError("weights must be integers")
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        if not rows or not rows[0]:
            raise DimensionError("weight matrix must be nonempty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("weight matrix rows must share a length")
        object.__setattr__(self, "rows", rows)

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def check_fit(M: Matroid, W: WeightMatrix):
    """Refuse (DimensionError) a weight matrix without one column per
    element of M."""
    if W.n != M.n:
        raise DimensionError(f"weight matrix has {W.n} columns, matroid has {M.n}")


def project(W: WeightMatrix, basis):
    """W e_B: sum the selected columns of each criteria row."""
    for i in basis:
        if not 0 <= i < W.n:
            raise DimensionError(f"basis element {i} outside weight columns")
    return tuple(sum(row[i] for i in basis) for row in W.rows)


def dominates(p, q) -> bool:
    """p dominates q under minimization: p <= q componentwise and p != q."""
    return all(a <= b for a, b in zip(p, q)) and p != q


def pareto_filter(points):
    """Subset of points not dominated by any other (minimization)."""
    pts = list(set(points))
    return {p for p in pts if not any(dominates(q, p) for q in pts if q != p)}


def bounding_box(M: Matroid, W: WeightMatrix):
    """Tight axis-aligned box around the projected bases, as the tuples
    (lo, hi) of its least and greatest coordinates.

    Each face is found by one greedy run: linear objectives over bases are
    solved exactly by the greedy algorithm.
    """
    check_fit(M, W)
    lo, hi = [], []
    for row in W.rows:
        _, mx = greedy_max_basis(M, row)
        _, neg = greedy_max_basis(M, [-x for x in row])
        lo.append(-neg)
        hi.append(mx)
    return tuple(lo), tuple(hi)


# Objectives --------------------------------------------------------------
#
# Each evaluates exactly on integer points of Z^d and yields a totally
# ordered value: a plain int when the coefficients or target are integers,
# an exact Fraction only when they are truly rational, and anything
# comparable for Custom.  int and Fraction compare and format alike.


@dataclass(frozen=True)
class Linear:
    c: tuple

    def __call__(self, point):
        if len(self.c) != len(point):
            raise DimensionError("objective dimension mismatch")
        return sum(a * x for a, x in zip(self.c, point))


@dataclass(frozen=True)
class SquaredDistance:
    target: tuple

    def __call__(self, point):
        if len(self.target) != len(point):
            raise DimensionError("objective dimension mismatch")
        return sum((x - t) ** 2 for x, t in zip(point, self.target))


@dataclass(frozen=True)
class QuarticDistance:
    target: tuple

    def __call__(self, point):
        if len(self.target) != len(point):
            raise DimensionError("objective dimension mismatch")
        return sum((x - t) ** 4 for x, t in zip(point, self.target))


@dataclass(frozen=True)
class MinMax:
    def __call__(self, point):
        return max(point)


@dataclass(frozen=True)
class Custom:
    """Wraps any total-order key on Z^d."""

    key: object

    def __call__(self, point):
        return self.key(point)
