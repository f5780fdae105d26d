"""Independent brute-force ground truth used to validate everything else.

These routines favor obviousness over speed: complete subset sweeps,
contraction/deletion tree enumeration, lattice counts from sums of bases.
They are the reference side of every dual-route check in the test suite,
so nothing here may ever call into the pipeline it validates.  Two rest on
a theorem rather than brute force, and the tests check each against a
plain route: `dilation_lattice_counts` counts sums of bases, by the
integer decomposition property of P_M, against a box scan of the facet
description; `polytope_dimension` counts the connected components of the
matroid on the fundamental circuits of a single basis, against the rank
of the edge directions over every basis.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import DimensionError, check_cap
from .linalg import bareiss_det
from .matroid import Matroid, UniformMatroid, _spanning_forest
from .multicriteria import WeightMatrix, check_fit, project
from .uniform import bounded_composition_counts


def enumerate_bases(M: Matroid):
    """Every basis of M, as sorted tuples, in lexicographic order, refused
    (CapError) when C(n, r) exceeds MATROPT_BASES_CAP: one rank query per
    rank-sized subset."""
    check_cap(comb(M.n, M.rank), "rank-sized subsets")
    return [b for b in combinations(range(M.n), M.rank) if M.rank_of(b) == M.rank]


def spanning_trees(n_vertices: int, edges):
    """Stream every spanning tree of a connected multigraph, once each.

    Contraction/deletion: trees through the pivot edge come from the
    contracted graph, the rest from the deleted graph (pruned when deletion
    disconnects).  Output-sensitive and duplicate-free by construction.
    """
    edges = [tuple(e) for e in edges]
    if len(_spanning_forest(n_vertices, edges, range(len(edges)))) != n_vertices - 1:
        raise DimensionError("spanning-tree enumeration requires a connected graph")

    def rec(nv, elist, chosen):
        if nv == 1:
            yield frozenset(chosen)
            return
        u, v, label = elist[0]
        if u == v:  # contraction can create loops; they join no tree
            yield from rec(nv, elist[1:], chosen)
            return
        # Contract (u, v): fold the higher endpoint onto the lower one and
        # shift every label above it down.
        lo, hi = (u, v) if u < v else (v, u)
        contracted = []
        for a, b, lab in elist[1:]:
            a2 = lo if a == hi else (a - 1 if a > hi else a)
            b2 = lo if b == hi else (b - 1 if b > hi else b)
            contracted.append((a2, b2, lab))
        yield from rec(nv - 1, contracted, chosen + [label])
        rest = elist[1:]
        if len(_spanning_forest(nv, [(a, b) for a, b, _ in rest], range(len(rest)))) == nv - 1:
            yield from rec(nv, rest, chosen)

    labeled = [(u, v, i) for i, (u, v) in enumerate(edges)]
    yield from rec(n_vertices, labeled, [])


def laplacian_tree_count(n_vertices: int, edges) -> int:
    """Matrix-tree count: determinant of any cofactor of the Laplacian."""
    lap = [[0] * n_vertices for _ in range(n_vertices)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return bareiss_det(minor)


def exact_projected_set(M: Matroid, W: WeightMatrix, bases=None):
    """Map projected point -> fiber size, by full basis enumeration."""
    check_fit(M, W)
    if bases is None:
        bases = enumerate_bases(M)
    fibers = {}
    for b in bases:
        p = project(W, b)
        fibers[p] = fibers.get(p, 0) + 1
    return fibers


def planar_convex_hull(points):
    """Counter-clockwise hull vertices of integer points in the plane,
    starting at the lexicographically smallest point.

    Monotone chain with exact cross products; collinear non-extreme points
    are dropped.  Degenerate inputs give the natural degenerate hull.
    """
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def dilation_lattice_counts(M: Matroid, ks) -> tuple:
    """#(k P_M intersect Z^n) for each k of the sequence `ks`, in order:
    the number of distinct sums B_1 + ... + B_k of k bases.

    Matroid base polytopes have the integer decomposition property, since
    the basis monomial ring is normal (White, The basis monomial ring of a
    matroid, Adv. Math. 1977).  The bases are enumerated once, each packed
    as one int with max(ks).bit_length() bits per element so that no
    coordinate of a sum carries, and S_j = {s + b : s in S_(j-1), b a basis}
    is swept once up to max(ks).  Uniform matroids keep only the box
    constraints 0 <= x_i <= k with total k*r, so each count is read off its
    own bounded-composition table.  MATROPT_BASES_CAP bounds the work of
    the largest k: the sums formed, checked before each step, or the
    entries of its tables, checked before any is built.
    """
    if any(k < 0 for k in ks):
        raise DimensionError("dilation factor must be >= 0")
    kmax = max(ks, default=0)
    if kmax == 0:
        return (1,) * len(ks)
    if isinstance(M, UniformMatroid):
        # The table for m parts has m*k + 1 entries, m = 1..n; the largest
        # k's tables pass the cap only if every smaller k's do.
        check_cap(kmax * M.n * (M.n + 1) // 2 + M.n, "table entries")
        return tuple(bounded_composition_counts(M.n, k + 1)[k * M.rank] for k in ks)
    width = kmax.bit_length()
    bases = [sum(1 << width * e for e in b) for b in enumerate_bases(M)]
    sums, sizes, formed = {0}, [1], 0
    for _ in range(kmax):
        formed += len(sums) * len(bases)
        check_cap(formed, "sums of bases")
        sums = {s + b for s in sums for b in bases}
        sizes.append(len(sums))
    return tuple(sizes[k] for k in ks)


def polytope_dimension(M: Matroid, basis) -> int:
    """dim P_M: n minus the number of connected components of M, which are
    those of the graph whose edges are the exchange pairs (i, j) of any one
    basis B, i on C(B, j) (Krogdahl, The dependence graph for bases in
    matroids, Discrete Math. 1977).  So the dimension is the size of a
    spanning forest of that graph, for B the given `basis`."""
    edges = M._exchange_pairs(basis)
    return len(_spanning_forest(M.n, edges, range(len(edges))))
