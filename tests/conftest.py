"""Shared matroid catalog and independent brute-force helpers.

The helpers here are deliberately naive (full subset sweeps, direct
definitions) so they can serve as oracles for the package's cleverer code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, gcd, lcm, perm

import pytest

from matropt import (
    DimensionError,
    InternalInconsistencyError,
    Matroid,
    bounded_composition_counts,
    dilation_polynomial,
    ehrhart_uniform,
    enumerate_bases,
    graphic_matroid,
    incidence_vector,
    placing_triangulation,
    polytope_dimension,
    random_basis,
    tangent_cone,
    tree_cells,
    uniform_matroid,
    vector_matroid,
)
from matropt.genfun import _cone_value, _exp_gamma, _exp_table, _powers
from matropt.heuristics import _derived_seed, _point, boundary_start, fiber_bfs
from matropt.linalg import _extend, _integral, _null_vector, _unit, bareiss_det, rational_rank

K4_ADJACENCY = [
    [0, 1, 1, 1],
    [1, 0, 1, 1],
    [1, 1, 0, 1],
    [1, 1, 1, 0],
]

# Paper's running example: the 16 spanning trees of the complete graph on
# four nodes, edges labeled row-major over the upper triangle (1-based).
K4_BASES_1BASED = [
    {3, 5, 6}, {3, 4, 6}, {3, 4, 5}, {2, 5, 6}, {2, 4, 6}, {2, 4, 5},
    {2, 3, 5}, {2, 3, 4}, {1, 5, 6}, {1, 4, 6}, {1, 4, 5}, {1, 3, 6},
    {1, 3, 4}, {1, 2, 6}, {1, 2, 5}, {1, 2, 3},
]

# 2 x 5 realization used in the introduction of vector matroids: columns
# 1 and 5 are parallel, so {1, 5} is dependent.
VECTOR_2x5 = [
    [1, 0, 1, -1, 2],
    [1, 1, 0, 1, 2],
]


def k4_matroid():
    return graphic_matroid(K4_ADJACENCY)


def cycle_adjacency(k):
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        adj[i][(i + 1) % k] = adj[(i + 1) % k][i] = 1
    return adj


def diamond_adjacency():
    # K4 minus one edge: two triangles sharing an edge (5 edges).
    adj = [row[:] for row in K4_ADJACENCY]
    adj[0][3] = adj[3][0] = 0
    return adj


def k23_adjacency():
    adj = [[0] * 5 for _ in range(5)]
    for a in (0, 1):
        for b in (2, 3, 4):
            adj[a][b] = adj[b][a] = 1
    return adj


def wheel4_adjacency():
    # Hub 0 joined to a 4-cycle on 1..4: five vertices, eight edges.
    adj = [[0] * 5 for _ in range(5)]
    cycle = [1, 2, 3, 4]
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % 4]
        adj[u][v] = adj[v][u] = 1
        adj[0][u] = adj[u][0] = 1
    return adj


def square_matroid():
    # Direct sum of two 2-element rank-1 uniform matroids: P is a square.
    return vector_matroid([[1, 1, 0, 0], [0, 0, 1, 1]])


def vector_k4():
    """Oriented vertex-edge incidence of K4, one row dropped: the same
    matroid as the graphic backend, with identical edge labels."""
    return vector_matroid(
        [
            [1, 1, 1, 0, 0, 0],
            [-1, 0, 0, 1, 1, 0],
            [0, -1, 0, -1, 0, 1],
        ]
    )


def catalog_small():
    """Matroids with n <= 7, mixed backends, used all over the suite."""
    items = [
        uniform_matroid(1, 1),
        uniform_matroid(2, 1),
        uniform_matroid(3, 1),
        uniform_matroid(3, 2),
        uniform_matroid(4, 2),
        uniform_matroid(5, 2),
        uniform_matroid(5, 3),
        uniform_matroid(6, 2),
        uniform_matroid(6, 3),
        uniform_matroid(7, 3),
        uniform_matroid(8, 4),
        graphic_matroid(wheel4_adjacency()),
        graphic_matroid(cycle_adjacency(3)),
        graphic_matroid(cycle_adjacency(4)),
        graphic_matroid(cycle_adjacency(5)),
        graphic_matroid(diamond_adjacency()),
        k4_matroid(),
        graphic_matroid(k23_adjacency()),
        vector_matroid(VECTOR_2x5),
        square_matroid(),
    ]
    return items


def catalog_connected(max_n):
    return [M for M in catalog_small()
            if M.n <= max_n and polytope_dimension(M, enumerate_bases(M)[0]) == M.n - 1]


def disconnected_matroids():
    """Several components of the exchange graph, each rooted and re-rooted
    on its own: K4 beside a triangle, and a vector matroid that is
    U(2,4) + U(1,3) + U(1,2) with its parallel and free columns."""
    k4_and_triangle = [[0] * 7 for _ in range(7)]
    for block in (range(4), range(4, 7)):
        for u in block:
            for v in block:
                k4_and_triangle[u][v] = int(u != v)
    direct_sum = vector_matroid([
        [1, 1, 1, 1, 0, 0, 0, 0, 0],
        [0, 1, 2, 3, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 1],
    ])
    return [graphic_matroid(k4_and_triangle), direct_sum]


def exchange_edge_cases():
    """Matroids beyond the catalog for the fundamental-circuit routes: K3,3,
    the disconnected matroids, a vector matroid with a zero column (a
    loop), one with parallel columns, and the ranks 0 and n (U(0,4), all
    loops, and U(4,4), all coloops)."""
    k33 = graphic_matroid([[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)])
    return [
        k33,
        *disconnected_matroids(),
        vector_matroid([[1, 0, 2, 0], [0, 1, 3, 0]]),  # a zero column
        vector_matroid([[1, 2, 0, 1, 3], [1, 2, 1, 0, 3]]),  # 0, 1 and 4 parallel
        uniform_matroid(4, 0),
        uniform_matroid(4, 4),
    ]


@pytest.fixture(scope="session")
def k4():
    return k4_matroid()


@pytest.fixture(scope="session")
def u24():
    return uniform_matroid(4, 2)


@pytest.fixture(scope="session")
def catalog():
    return catalog_small()


# Vector views of the pipeline's cones and cells ---------------------------
# The pipeline carries a vertex cone as exchange pairs and a cell as
# generator indices; the oracles below work on vectors: the generators
# e_j - e_i, half-open simplicial cones and generating-function terms.


@dataclass(frozen=True)
class VertexCone:
    """Vertex cone of a matroid polytope at a vertex e_B, for the oracles.

    `apex` is e_B, and generator k is e_j - e_i for the k-th exchange pair
    (i, j) of `pairs`: i leaves B and j enters it.
    """

    apex: tuple
    pairs: tuple


def vertex_cone(M: Matroid, basis) -> VertexCone:
    """The vertex cone at e_basis, with the exchange pairs of `tangent_cone`."""
    return VertexCone(incidence_vector(basis, M.n), tangent_cone(M, basis))


@dataclass(frozen=True)
class HalfOpenSimplicialCone:
    """Simplicial cone with a subset of facets made strict.

    Points are apex + sum(lambda_j * b_j) with lambda_j >= 0, strictly
    positive for j in strict_indices (0-based positions into generators).
    """

    apex: tuple
    generators: tuple
    strict_indices: frozenset


@dataclass(frozen=True)
class GenFunTerm:
    """One term z^numerator / prod_j (1 - z^denominators[j]).

    `vertex` stores the apex so the k-th dilation reads numerator+(k-1)*vertex.
    """

    numerator: tuple
    vertex: tuple
    denominators: tuple

    def __post_init__(self):
        for b in self.denominators:
            if not any(b):
                raise DimensionError("denominator exponents must be nonzero")


def cone_generators(cone: VertexCone):
    """The generators e_j - e_i of a vertex cone, in cone order."""
    out = []
    for i, j in cone.pairs:
        g = [0] * len(cone.apex)
        g[i], g[j] = -1, 1
        out.append(tuple(g))
    return tuple(out)


def half_open_cells(cone: VertexCone, cells=None):
    """The cone's cells (by default its `tree_cells`) as half-open
    simplicial cones, strict facets given by their positions among the
    cell's generators."""
    gens = cone_generators(cone)
    return [
        HalfOpenSimplicialCone(cone.apex, tuple(gens[k] for k in bits),
                               frozenset(bits.index(k) for k in strict))
        for bits, strict, _ in (tree_cells(cone.pairs) if cells is None else cells)
    ]


def cell_term(cone: VertexCone, bits, strict) -> GenFunTerm:
    """Term of one tree cell: the numerator sits at the unique lattice
    point of its fundamental parallelepiped, the apex plus the strict
    generators (the cells are unimodular by construction)."""
    gens = cone_generators(cone)
    num = list(cone.apex)
    for k in strict:
        num = [a + g for a, g in zip(num, gens[k])]
    return GenFunTerm(tuple(num), cone.apex, tuple(gens[k] for k in bits))


def matroid_genfun(M: Matroid, bases=None):
    """Generating-function terms of P_M by the vertex-cone decomposition,
    one per half-open tree cell of every vertex cone."""
    if bases is None:
        bases = enumerate_bases(M)
    terms = []
    for b in bases:
        cone = vertex_cone(M, b)
        terms += [cell_term(cone, bits, strict) for bits, strict, _ in tree_cells(cone.pairs)]
    return terms


def ehrhart_per_cone(M: Matroid):
    """Ehrhart coefficients with one `tree_cells` walk per vertex cone,
    no cells shared across automorphism orbits: the second route for
    `ehrhart_polynomial`."""
    bases = enumerate_bases(M)
    dim = polytope_dimension(M, bases[0])
    powers = _powers(range(1 - M.n, M.n), dim)
    values = []
    for b in bases:
        pairs = tangent_cone(M, b)
        values.append(_cone_value(b, pairs, tree_cells(pairs), powers))
    return dilation_polynomial(values, dim)


# Superseded routes of the pipeline's fixed work ----------------------------
# `oracles.polytope_dimension` before it read the dimension off fundamental
# circuits, and `genfun._todd_log` before it read the Todd logarithm off the
# tangent numbers: the references the new routes are checked against.


def rank_dimension(M: Matroid, bases=None) -> int:
    """dim P_M as the rank of the edge directions from the first basis to
    every other, by one elimination over all the bases."""
    if bases is None:
        bases = enumerate_bases(M)
    base0 = incidence_vector(bases[0], M.n)
    return rational_rank(
        [tuple(a - c for a, c in zip(incidence_vector(b, M.n), base0)) for b in bases[1:]]
    )


def pairs_of_adjacent_bases(M: Matroid, basis):
    """The exchange pair (i, j) of every adjacent basis B - i + j, in the
    order of `M.adjacent_bases`, read off the neighbour tuples."""
    inside = set(basis)
    pairs = []
    for nb in M.adjacent_bases(tuple(sorted(basis))):
        (i,) = inside.difference(nb)
        (j,) = set(nb).difference(inside)
        pairs.append((i, j))
    return tuple(pairs)


def fraction_todd_log(m: int):
    """(A, (alpha_0..alpha_m)) with log(x / (1 - exp(-x))) equal to
    sum_n alpha_n / A * x^n up to x^m: minus the log series l of
    (1 - exp(-x)) / x = sum_n c_n x^n, c_n = (-1)^n / (n+1)!, from
    n l_n = n c_n - sum_{0<k<n} k l_k c_(n-k), over a common A."""
    c = [Fraction((-1) ** n, factorial(n + 1)) for n in range(m + 1)]
    log = [Fraction(0)] * (m + 1)
    for n in range(1, m + 1):
        log[n] = c[n] - sum([k * log[k] * c[n - k] for k in range(1, n)], Fraction(0)) / n
    big = lcm(*[x.denominator for x in log])
    return big, tuple(-int(x * big) for x in log)


# Independent oracles -------------------------------------------------------


def brute_rank(M: Matroid, subset) -> int:
    """Largest independent subset by sweeping all subsets (oracle)."""
    subset = tuple(subset)
    best = 0
    for size in range(len(subset), -1, -1):
        for sub in combinations(subset, size):
            if M.rank_of(sub) == len(sub):
                best = max(best, size)
                break
        if best:
            break
    return best


def brute_adjacent(M: Matroid, basis):
    """Single-exchange neighbors straight from the definition (oracle)."""
    basis = set(basis)
    out = set()
    for i in basis:
        for j in range(M.n):
            if j not in basis:
                cand = tuple(sorted((basis - {i}) | {j}))
                if M.is_basis(cand):
                    out.add(cand)
    return out


def brute_max_weight(M: Matroid, weights):
    best = None
    for b in enumerate_bases(M):
        val = sum(Fraction(weights[i]) for i in b)
        if best is None or val > best[1] or (val == best[1] and b < best[0]):
            best = (b, val)
    return best


def random_connected_graph(rng: random.Random, max_nodes=9, extra_hi=2):
    """Seeded connected graph: a random tree plus a few extra edges."""
    nodes = rng.randint(5, max_nodes)
    edges = set()
    # Random tree: attach each new node to a random earlier one.
    for v in range(1, nodes):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = rng.randint(1, extra_hi)
    tries = 0
    while extra > 0 and tries < 100:
        tries += 1
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            extra -= 1
    adj = [[0] * nodes for _ in range(nodes)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    return adj


def random_weight_matrix(rng: random.Random, d, n, lo=0, hi=20):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(d))


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def incidence_rows(M: Matroid, bases):
    return [incidence_vector(b, M.n) for b in bases]


def rational_kernel_basis(rows):
    """Basis of {x : A x = 0} by Fraction Gauss-Jordan elimination, each
    vector cleared to coprime integers (oracle for facet normals)."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = {}
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
        pivots[col] = row
        row += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for pcol, prow in pivots.items():
            vec[pcol] = -m[prow][fcol]
        basis.append(clear_denominators(vec))
    return basis


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector."""
    fracs = [Fraction(x) for x in vec]
    lcm = 1
    for f in fracs:
        d = f.denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def fraction_rank(rows) -> int:
    """Rank over Q of a matrix with int/Fraction entries, by Fraction
    Gauss-Jordan elimination (oracle for the integer echelon)."""
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


def fraction_solve(basis_rows, target):
    """Coordinates c with c * basis_rows = target, or None if target is outside.

    Also None when basis_rows are linearly dependent: some coordinate then
    finds no pivot, so a non-None answer certifies independent rows.  Fraction
    Gauss-Jordan elimination (oracle for the integer echelon).
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


def half_open_contains(cone: HalfOpenSimplicialCone, point) -> bool:
    """Exact membership in a half-open simplicial cone, through the Fraction
    solve (an independent route to the cell coordinates)."""
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(point, cone.apex))
    if not cone.generators:
        return all(x == 0 for x in diff)
    lam = fraction_solve(cone.generators, diff)
    if lam is None:
        return False
    for j, l in enumerate(lam):
        if j in cone.strict_indices:
            if l <= 0:
                return False
        elif l < 0:
            return False
    return True


def affinely_independent(points) -> bool:
    """Whether the rational points are affinely independent."""
    if len(points) <= 1:
        return True
    base = points[0]
    diffs = [tuple(Fraction(a) - Fraction(b) for a, b in zip(p, base)) for p in points[1:]]
    return fraction_rank(diffs) == len(diffs)


# Exact rational simplex: maximize c.x subject to A x = b, x >= 0, in
# Fractions, two phases, Bland's rule.  Backs the visibility oracle.

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tab, basis, row, col):
    inv = 1 / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
    basis[row] = col


def _solve_phase(tab, basis, cost):
    """Run Bland-rule simplex on tableau rows with the given cost vector.

    tab: m rows of length n+1 (last entry = rhs), representing A x = b with
    the current basis already in canonical form.  Returns status.
    """
    m = len(tab)
    n = len(cost)
    while True:
        # Reduced costs relative to the current basis.
        z = list(cost)
        const = Fraction(0)
        for i, bi in enumerate(basis):
            if cost[bi] != 0:
                f = cost[bi]
                for j in range(n):
                    z[j] -= f * tab[i][j]
                const += f * tab[i][n]
        enter = next((j for j in range(n) if z[j] > 0), None)
        if enter is None:
            return OPTIMAL, const
        # Bland: smallest-index entering; leaving by min ratio, ties by index.
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED, None
        _pivot(tab, basis, leave, enter)


def simplex_maximize(a_rows, b, c):
    """Maximize c.x subject to a_rows x = b, x >= 0.

    Returns (status, x, value) with exact Fractions; x and value are None
    unless status == OPTIMAL.
    """
    m = len(a_rows)
    n = len(c)
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in a_rows[i]] + [Fraction(b[i])]
        if row[n] < 0:
            row = [-x for x in row]
        tab.append(row)
    # Phase 1: artificial variable per row.
    for i in range(m):
        for j in range(m):
            tab[i].insert(n + j, Fraction(1 if i == j else 0))
    basis = [n + i for i in range(m)]
    phase1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
    status, value = _solve_phase(tab, basis, phase1_cost)
    if status != OPTIMAL or value != 0:
        return INFEASIBLE, None, None
    # Drive lingering artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    # Drop rows whose artificial stayed basic (redundant constraints).
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost = [Fraction(x) for x in c]
    status, value = _solve_phase(tab, basis, cost)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return OPTIMAL, tuple(x), value


def visible(facet_points, hull_points, v) -> bool:
    """Exact LP test: is the facet visible from v?  Oracle for the
    supporting-hyperplane shortcut in `placing_triangulation`.

    Feasibility of a hull point strictly between the facet centroid z and v
    is decided by maximizing the segment parameter lam in
    x = lam*v + (1-lam)*z, x in conv(hull_points), 0 <= lam <= 1.  The facet
    is visible exactly when the maximum is zero (the segment meets the hull
    only at z).
    """
    facet_points = [tuple(map(Fraction, p)) for p in facet_points]
    hull_points = [tuple(map(Fraction, p)) for p in hull_points]
    v = tuple(map(Fraction, v))
    if not affinely_independent(facet_points):
        raise DimensionError("degenerate facet: affinely dependent vertex list")
    q = len(facet_points)
    dim = len(v)
    z = tuple(sum(p[i] for p in facet_points) / q for i in range(dim))
    t = len(hull_points)
    # Variables: y_1..y_t, lam, slack for lam <= 1.
    rows, rhs = [], []
    for i in range(dim):
        row = [hull_points[j][i] for j in range(t)] + [z[i] - v[i], Fraction(0)]
        rows.append(row)
        rhs.append(z[i])
    rows.append([Fraction(1)] * t + [Fraction(0), Fraction(0)])
    rhs.append(Fraction(1))
    rows.append([Fraction(0)] * t + [Fraction(1), Fraction(1)])
    rhs.append(Fraction(1))
    cost = [Fraction(0)] * t + [Fraction(1), Fraction(0)]
    status, _, value = simplex_maximize(rows, rhs, cost)
    if status != OPTIMAL:
        raise InternalInconsistencyError(f"visibility LP ended {status}")
    return value == 0


def hstar_uniform_triple_sum(n: int, r: int):
    """h*-vector of the uniform matroid polytope P(U^{r,n}) (oracle for the
    closed-form counts behind `hstar_uniform`).

    Inclusion-exclusion over the composition tables:
      h*_l = sum over s, j, k of (-1)^(s+j+k) C(n,s) C(s,j) C(j,k)
             * [compositions of (l-k)(r-s) into n-j parts below r-s].
    Trailing zeros are trimmed; h*_0 = 1 always.
    """
    if not 1 <= r <= n - 1:
        raise DimensionError(f"uniform h* needs 1 <= r <= n-1, got r={r}, n={n}")
    out = []
    for l in range(n):
        total = 0
        for s in range(r):
            rs = r - s
            cns = comb(n, s)
            for j in range(s + 1):
                csj = comb(s, j)
                table = composition_table(n - j, rs)
                limit = (n - j) * (rs - 1)
                sign_sj = -1 if (s + j) % 2 else 1
                for k in range(j + 1):
                    idx = (l - k) * rs
                    if 0 <= idx <= limit:
                        term = cns * csj * comb(j, k) * table[idx]
                        total += -term if (sign_sj < 0) != (k % 2 == 1) else term
        out.append(total)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# Placing with one facet normal per boundary facet --------------------------
# `triangulate.placing_triangulation` before each cell carried its facet
# functionals: every boundary facet gets its normal from its own kernel
# elimination the first time a point tests it.  The cells and their order
# must be the library's.


def placing_with_facet_normals(points, order=None):
    """Incremental triangulation of a point set in the given insertion order.

    Returns (cells, order): cells are sorted tuples of point indices, each
    affinely independent and of the common maximal dimension.  A point that
    extends the affine hull cones over every existing cell; otherwise it is
    attached to every boundary facet visible from it (a point inside the
    current hull sees nothing and stays unused).  Duplicate points are
    skipped.  The result depends on the order, which is therefore returned
    alongside the cells.

    All arithmetic is in integers.  Rational input is scaled by the lcm of
    its denominators, an affine map that keeps the combinatorics.  An
    integer echelon of difference rows tracks the affine hull; its pivot
    columns give a projection that is injective on the hull.  Candidate
    facets always lie on the current hull boundary, where visibility is a
    strict supporting-hyperplane sign test: one dot product with the
    facet's normal (a kernel vector of its edges), compared with the side
    of the opposite vertex of the facet's cell.
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    if not pts:
        raise DimensionError("need at least one point")
    order = tuple(range(len(pts))) if order is None else tuple(order)
    if sorted(order) != list(range(len(pts))):
        raise DimensionError("order must be a permutation of the point indices")
    scale = lcm(*(x.denominator for p in pts for x in p))
    ipts = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in pts]
    cells: list = []
    seen: set = set()
    origin = None
    echelon: list = []  # (pivot column, row): reduced difference rows of the hull
    boundary: dict = {}  # boundary facet -> opposite vertex, first-occurrence order
    interior: set = set()
    normals: dict = {}  # boundary facet -> (normal, offset, side of opposite vertex)
    for idx in order:
        v = ipts[idx]
        if v in seen:
            continue  # duplicate of an already-placed point: unused
        seen.add(v)
        if origin is None:
            origin = v
            cells = [(idx,)]
            continue
        if _extend(echelon, [a - b for a, b in zip(v, origin)]) is None:
            cells = [tuple(sorted(cell + (idx,))) for cell in cells]
            boundary, interior = {}, set()
            _add_facets(boundary, interior, cells)
            normals.clear()
            continue
        cols = [c for c, _ in echelon]
        qv = [v[c] for c in cols]
        new = []
        for f, opp in boundary.items():
            entry = normals.get(f)
            if entry is None:
                entry = normals[f] = _facet_normal([ipts[i] for i in f], ipts[opp], cols)
            nu, offset, ref = entry
            sv = sum(a * b for a, b in zip(nu, qv)) - offset
            if sv != 0 and (sv > 0) != (ref > 0):
                new.append(tuple(sorted(f + (idx,))))
        cells += new
        _add_facets(boundary, interior, new)
    cols = [c for c, _ in echelon]
    for cell in cells:
        base = ipts[cell[0]]
        edges = [[ipts[i][c] - base[c] for c in cols] for i in cell[1:]]
        if bareiss_det(edges) == 0:
            raise InternalInconsistencyError("placing produced a degenerate cell")
    return cells, order


def _add_facets(boundary, interior, cells):
    """Count the facets of new cells: a facet seen once is on the boundary
    (kept with its cell's opposite vertex), one seen again is interior."""
    for cell in cells:
        last = len(cell) - 1
        for k, f in enumerate(combinations(cell, last)):
            if f in interior:
                continue
            if f in boundary:
                del boundary[f]
                interior.add(f)
            else:
                boundary[f] = cell[last - k]  # combinations drop the last vertex first


def _facet_normal(facet, opposite, cols):
    """Normal of a hull facet in projected coordinates (a kernel vector of
    its edge matrix), its offset, and the side of the opposite vertex of the
    facet's cell; only signs against the normal are ever used."""
    q = [[p[c] for c in cols] for p in facet]
    nu = _null_vector([[a - b for a, b in zip(row, q[0])] for row in q[1:]], len(cols))
    if nu is None:
        raise InternalInconsistencyError("boundary facet does not span a hyperplane")
    offset = sum(a * b for a, b in zip(nu, q[0]))
    ref = sum(a * opposite[c] for a, c in zip(nu, cols)) - offset
    if ref == 0:
        raise InternalInconsistencyError("degenerate cell: opposite vertex on the facet")
    return nu, offset, ref


def seeded_rational_point_sets(trials):
    """(points, insertion order) pairs drawn as
    `test_surfaces.py::TestPlacingMatchesVisibilityLP::test_random_sets_agree_with_lp`
    draws its 40: rational points in dims 1-4, a point on a segment, the
    centroid, a duplicate and a shuffled order.  The first 40, each list
    permuted by its order, are its sets."""
    rng = random.Random(20261018)
    for trial in range(trials):
        dim = 1 + trial % 4
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
            for _ in range(rng.randint(2, 4 + dim))
        ]
        a, b = rng.sample(pts, 2)
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
        pts.append(rng.choice(pts))
        order = list(range(len(pts)))
        rng.shuffle(order)
        yield pts, order


# Half-open placing of the whole polytope -----------------------------------
# A second route to h* that needs no generic lambda and no Ehrhart counts:
# for a unimodular triangulation and a generic point q of the relative
# interior, make facet j of a cell strict exactly when the j-th barycentric
# coordinate of q is negative.  The half-open cells then partition P
# (Stanley, Decompositions of rational convex polytopes, 1980; Koeppe and
# Verdoolaege, 2008), and a cell with i strict facets adds t^i to the
# numerator of the Ehrhart series.


def hstar_by_half_open_placing(M: Matroid):
    """h* of P_M from its placing triangulation, counting each cell by the
    barycentric coordinates of q that are negative.  q is a seeded random
    positive combination of all vertices, so it lies in the relative
    interior; a zero coordinate means it is not generic and raises."""
    pts = [incidence_vector(b, M.n) for b in enumerate_bases(M)]
    cells, _ = placing_triangulation(pts)
    rng = random.Random(1)
    weights = [rng.randint(1, 10**6) for _ in pts]
    # q in homogeneous coordinates, scaled by the total weight.
    q = [sum(w * p[c] for w, p in zip(weights, pts)) for c in range(M.n)] + [sum(weights)]
    hstar = [0] * len(cells[0])
    for cell in cells:
        coords = solve_in_row_space([(*pts[i], 1) for i in cell], q)
        if coords is None:
            raise InternalInconsistencyError("a placing cell does not span the polytope's hull")
        if 0 in coords:
            raise DimensionError("q lies on a cell wall")
        hstar[sum(c < 0 for c in coords)] += 1
    while hstar and hstar[-1] == 0:
        hstar.pop()
    return tuple(hstar)


# Placing-based cone triangulation and half-open flags ---------------------
# The Ehrhart pipeline reads its cells off spanning trees of the exchange
# graph (`triangulate.tree_cells`).  These routines build the same cells by
# placing and their flags by rational row-space solves, as an independent
# route to check it against.


def solve_in_row_space(basis_rows, target):
    """Coordinates c with c * basis_rows = target, or None if target is outside.

    Also None when basis_rows are linearly dependent, so a non-None answer
    certifies independent rows.  Runs on the package's integer echelon.
    """
    k, n = len(basis_rows), len(target)
    echelon: list = []
    for i, row in enumerate(basis_rows):
        if _extend(echelon, _integral([*row, *_unit(i, k), 0]), n) is not None:
            return None
    # Tags (a, s) of a target that cancels: sum(a_i * row_i) + s * target = 0.
    rest = _extend(echelon, _integral([*target, *[0] * k, 1]), n)
    if rest is None:
        return None
    return tuple(Fraction(-a, rest[-1]) for a in rest[n:-1])


def join_to_apex(cells, apex_index):
    """Restrict a triangulation to cells coned from one vertex.

    Keeps each boundary facet not containing the apex and joins it to the
    apex, so that every maximal cell of the result is incident to it.
    """
    boundary: dict = {}
    _add_facets(boundary, set(), cells)
    return [tuple(sorted(f + (apex_index,))) for f in boundary if apex_index not in f]


def cone_triangulation(cone: VertexCone):
    """Triangulate a vertex cone into simplicial cones sharing its apex.

    Two placing passes: triangulate conv({0} u generators), then join the
    origin to the boundary facets away from it.  Each resulting cell is a
    tuple of generators in cone order.
    """
    gens = list(cone_generators(cone))
    if not gens:
        return [()]
    dim = len(gens[0])
    pts = [tuple([0] * dim)] + gens
    cells, _ = placing_triangulation(pts)
    star = join_to_apex(cells, 0)
    return [tuple(pts[i] for i in c if i != 0) for c in star]


def _cell_coordinates(cell, y):
    """Coordinates of y in the generators of a simplicial cell."""
    c = solve_in_row_space(cell, y)
    if c is None:
        raise DimensionError(
            "y must lie in the span of every cell, and cell generators must be independent"
        )
    return c


def generic_y_for_cells(cells):
    """Relative-interior vector of the cone avoiding every cell wall.

    y = sum_i t^i rays_i, strictly positive on all the rays, so the cone's
    own boundary facets keep weak inequalities and only internal walls are
    opened; t grows from 1 until y has no zero coordinate in any cell.  The
    rays are taken in their order of first appearance in the cells.
    Returns y and its coordinates per cell.
    """
    cells = [cell for cell in cells if cell]
    rays = list(dict.fromkeys(g for cell in cells for g in cell))
    if not rays:
        return None, {}
    dim = len(rays[0])
    t = 1
    while True:
        y = tuple(sum(t**i * ray[p] for i, ray in enumerate(rays)) for p in range(dim))
        coords = {}
        for cell in cells:
            c = _cell_coordinates(cell, y)
            if 0 in c:
                break
            coords[cell] = c
        else:
            return y, coords
        t += 1


def half_open_decompose(apex, cells, y=None):
    """Half-open variants of triangulation cells that partition the cone.

    Facet j of a cell is strict exactly when the j-th coordinate of y in
    the cell's generators is negative (the Koeppe-Verdoolaege sign rule).
    y must have no zero coordinate in any cell and sit in the cone's
    relative interior; a suitable vector is constructed when not supplied,
    and a supplied one is checked: a generic interior y is strictly inside
    exactly one cell.
    """
    cells = [tuple(tuple(g) for g in c) for c in cells]
    if y is None:
        _, coords = generic_y_for_cells(cells)
    else:
        coords = {cell: _cell_coordinates(cell, y) for cell in cells if cell}
        if any(0 in c for c in coords.values()):
            raise DimensionError("y is not generic: it lies on a wall of a cell")
    out = []
    strict_hits = 0
    for cell in cells:
        if not cell:
            out.append(HalfOpenSimplicialCone(tuple(apex), (), frozenset()))
            continue
        strict = frozenset(j for j, x in enumerate(coords[cell]) if x < 0)
        if not strict:
            strict_hits += 1
        out.append(HalfOpenSimplicialCone(tuple(apex), cell, strict))
    if any(c for c in cells) and strict_hits != 1:
        raise DimensionError("y must lie in the relative interior of the cone")
    return out


def genfun_of_halfopen(half) -> GenFunTerm:
    """Term of one unimodular half-open cell: numerator at the unique lattice
    point of the fundamental parallelepiped, apex + strict generators.
    Checks unimodularity with the lattice determinant."""
    if half.generators and cell_lattice_determinant(half.generators) != 1:
        raise DimensionError("cell is not unimodular over its lattice")
    num = list(half.apex)
    for j in half.strict_indices:
        num = [a + g for a, g in zip(num, half.generators[j])]
    return GenFunTerm(
        numerator=tuple(num),
        vertex=tuple(half.apex),
        denominators=tuple(half.generators),
    )


# Tree cells with every forest rebuilt --------------------------------------
# `triangulate.tree_cells` before its forests became masks that a swap
# updates: every cell rebuilds its rooted forest from its edges, walks the
# tree path of every non-tree edge for its neighbours, and prunes leaves
# for its coordinates at y = sum_k 2^k g_k, from supplies summed over every
# generator and coordinate.


def tree_cells_both_supplies(cone: VertexCone):
    """The tree cells of a vertex cone as (bits, strict, origin), in the
    same order and with the same strict flags and swap records as
    `triangulate.tree_cells`, every forest rebuilt from its edges, every
    strict flag the sign of a pruned coordinate of y = sum_k 2^k g_k and
    every origin (p, e, f) read off the masks of the cell and of the cell
    at position p that first listed it as a neighbour."""
    gens = cone_generators(cone)
    if not gens:
        return [((), (), None)]
    ends = cone.pairs
    n = len(cone.apex)
    y = [sum(g[p] << k for k, g in enumerate(gens)) for p in range(n)]
    first, comp = 0, list(range(n))
    for k, (i, j) in enumerate(ends):  # Kruskal by index: the minimum spanning forest
        if comp[i] != comp[j]:
            first |= 1 << k
            comp = [comp[i] if c == comp[j] else c for c in comp]
    cells, queue, origins = {first: None}, [first], {first: None}
    for p, tree in enumerate(queue):  # grows while it is read: breadth-first
        rows = _mask_rooted_forest(tree, ends)
        cells[tree] = _mask_tree_coordinates(rows, y, tree)
        for nb in _mask_neighbours(tree, rows, ends, n):
            if nb not in cells:
                cells[nb] = None
                queue.append(nb)
                origins[nb] = (p, (tree & ~nb).bit_length() - 1, (nb & ~tree).bit_length() - 1)
    out = []
    for tree, coords in cells.items():
        if 0 in coords:
            raise InternalInconsistencyError("y = sum 2^k g_k lies on a cell wall")
        bits = tuple(_mask_bits(tree))
        out.append((bits, tuple(k for k, x in zip(bits, coords) if x < 0), origins[tree]))
    if sum(1 for _, strict, _ in out if not strict) != 1:
        raise InternalInconsistencyError("y is interior to the cone, so one cell must be closed")
    return out


def _mask_bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _mask_rooted_forest(tree, ends):
    """Rows (vertex, parent, edge, +1 if the vertex is the edge's head else
    -1) of a forest in preorder, so every vertex follows its parent; roots
    are left out."""
    adj: dict = {}
    for k in _mask_bits(tree):
        i, j = ends[k]
        adj.setdefault(i, []).append((k, j, 1))
        adj.setdefault(j, []).append((k, i, -1))
    rows, seen = [], set()
    for r in adj:
        stack = [] if r in seen else [r]
        seen.add(r)
        while stack:
            v = stack.pop()
            for k, w, sign in adj[v]:
                if w not in seen:
                    seen.add(w)
                    rows.append((w, v, k, sign))
                    stack.append(w)
    return rows


def _mask_neighbours(tree, rows, ends, n):
    """Cells across the facets of a tree cell, by one network-simplex ratio
    test per tree edge, in the order of the edges they swap out."""
    pi = [0] * n
    depth = [0] * n
    up = [None] * n  # (parent, edge, sign) per vertex
    for v, p, k, sign in rows:
        pi[v] = pi[p] + sign * (1 << k)
        depth[v] = depth[p] + 1
        up[v] = (p, k, sign)
    best: dict = {}
    for f, (a, b) in enumerate(ends):
        if tree >> f & 1:
            continue
        cost = (1 << f) - (pi[b] - pi[a])
        if cost <= 0:
            raise InternalInconsistencyError("a tree with a non-positive reduced cost is not a cell")
        u, w = a, b
        while u != w:
            if depth[u] >= depth[w]:
                u, e, sign = up[u]
                backward = sign > 0
            else:
                w, e, sign = up[w]
                backward = sign < 0
            if backward and (e not in best or cost < best[e][0]):
                best[e] = (cost, f)
    return [tree ^ (1 << e) ^ (1 << f) for e, (_, f) in sorted(best.items())]


def _mask_tree_coordinates(rows, y, tree):
    """Coordinates of y in the generators of a tree cell, in cone order,
    by pruning leaves first."""
    net = list(y)
    flow = {}
    for v, p, k, sign in reversed(rows):
        net[p] += net[v]
        flow[k] = sign * net[v]
    return [flow[k] for k in _mask_bits(tree)]


# Todd weights with a Taylor shift ------------------------------------------
# `genfun.dilation_polynomial` as it was before the shift <lam, a - v> moved
# into the exponential: Todd weights w_l of each term from a series product,
# then a Taylor shift of sum_l w_l X^l and k^m scaled by <lam, v>^m.


def _todd_product(m: int, xis):
    """prod_j (x*xi_j / (1-exp(-x*xi_j))) truncated at x^m, in integers.

    Returns (p, den) with coefficient n equal to p[n] / den.  The product
    is exp(sum_k alpha_k / A * P_k x^k), P_k the power sums of the xi; with
    xi_j = r_j / q and R_k = sum_j r_j^k, exp's recurrence
    n g_n = sum_k k h_k g_(n-k) stays integral as g_n = gamma_n / (n! (Aq)^n),
    gamma_n = sum_k k (n-1)!/(n-k)! alpha_k A^(k-1) R_k gamma_(n-k).
    """
    big, alpha = fraction_todd_log(m)
    xis = [Fraction(x) for x in xis]
    q = lcm(*[x.denominator for x in xis])
    rs = [x.numerator * (q // x.denominator) for x in xis]
    weights = [
        (k, alpha[k] * big ** (k - 1) * sum([r**k for r in rs]))
        for k in range(1, m + 1)
        if alpha[k]
    ]
    gamma = [1]
    for n in range(1, m + 1):
        gamma.append(sum([k * perm(n - 1, k - 1) * w * gamma[n - k] for k, w in weights if k <= n]))
    scale = big * q
    p = [g * perm(m, m - n) * scale ** (m - n) for n, g in enumerate(gamma)]
    return p, factorial(m) * scale**m


def _term_weights(term: GenFunTerm, lam):
    """Todd weights w_0..w_s of one term at the singular point, as integer
    numerators over one positive denominator: w_l = nums[l] / den.

    w_l = (-1)^s td_(s-l)(-<lam, b_1>, ..., -<lam, b_s>) / (l! prod_j <lam, b_j>),
    and all s + 1 Todd values come from a single series product.
    """
    s = len(term.denominators)
    dots = [_idot(lam, b) for b in term.denominators]
    if any(d == 0 for d in dots):
        raise DimensionError("lambda is not generic for this term")
    p, den = _todd_product(s, [-d for d in dots])
    den *= factorial(s)
    for d in dots:
        den *= d
    sign = -1 if (s % 2) != (den < 0) else 1
    nums = [sign * p[s - l] * (factorial(s) // factorial(l)) for l in range(s + 1)]
    return nums, abs(den)


def term_polynomial_taylor_shift(term: GenFunTerm, lam):
    """Coefficients of k^0..k^s, as Fractions, of the term's value at z = 1
    in its k-th dilation: the Todd weights, shifted by <lam, a - v> and
    scaled by <lam, v>^m."""
    s = len(term.denominators)
    if s == 0:
        return [Fraction(1)]
    nums, den = _term_weights(term, lam)
    va = _idot(lam, term.vertex)
    shifted = _idot(lam, term.numerator) - va
    for i in range(s):
        for j in range(s - 1, i - 1, -1):
            nums[j] += shifted * nums[j + 1]
    return [Fraction(c * va**m, den) for m, c in enumerate(nums)]


# Fiber-BFS driver without the image stop -----------------------------------


def fiber_bfs_driver_loop(M: Matroid, W, *, seed=0, bfs_depth=2, num_searches=10,
                          boundary_retry_limit=100, random_retry_limit=1000):
    """`fiber_bfs_driver` as it ran before it listed the image: it stops
    only on num_searches successes or on both exhausted retry budgets
    (oracle for the early stop once every image point has a witness)."""
    seen: set = set()
    witnesses: dict = {}
    successes = 0
    boundary_failures = 0
    random_failures = 0
    attempt = [0, 0]  # per-phase attempt counters for seed derivation
    while successes < num_searches:
        if (
            boundary_failures >= boundary_retry_limit
            and random_failures >= random_retry_limit
        ):
            break
        for phase in (0, 1):
            if phase == 0 and boundary_failures >= boundary_retry_limit:
                continue
            if phase == 1 and random_failures >= random_retry_limit:
                continue
            rng = random.Random(_derived_seed(seed, phase, attempt[phase]))
            attempt[phase] += 1
            if phase == 0:
                basis = boundary_start(M, W, rng)
            else:
                basis = random_basis(M, rng)
            p = _point(W, basis)
            if p in seen:
                if phase == 0:
                    boundary_failures += 1
                else:
                    random_failures += 1
                continue
            if phase == 0:
                boundary_failures = 0
            else:
                random_failures = 0
            successes += 1
            if bfs_depth == 0:
                seen.add(p)
                witnesses[p] = basis
            else:
                fiber_bfs(M, W, basis, bfs_depth, seen, witnesses)
            if successes >= num_searches:
                break
    return seen, witnesses


# Lattice determinants by the gcd of maximal minors ------------------------
# `check-unimodular` reads each cell's lattice determinant off the volumes
# of `placing_triangulation`, determinants in the hull's pivot coordinates.
# This route needs no choice of coordinates: the index of a sublattice in
# Z^n meet its span is the gcd of the maximal minors of a basis (its last
# determinantal divisor).


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


def cell_lattice_determinant(generators) -> int:
    """|det| of a simplicial cell over Z^n intersected with its span: 1
    certifies a lattice basis."""
    if not generators:
        return 1
    g = max_minor_gcd([tuple(map(int, v)) for v in generators])
    if g == 0:
        raise DimensionError("cell generators are linearly dependent")
    return g


# Exchange graphs and determinant reduction --------------------------------
# Two graphs sit on any collection X of incidence vectors: one joins rows
# that differ by a single exchange, the other joins the pair of coordinates
# realized by such an exchange.  Their component structure controls |det(X)|
# and hence which simplices on the vertices of P_M are unimodular: a second
# route to the lattice determinants of `check-unimodular`.


@dataclass(frozen=True)
class ExchangeGraphs:
    """row_edges joins exchange-adjacent rows, column_edges the coordinate
    pairs those exchanges touch; node counts come with each edge set."""

    n_rows: int
    n_cols: int
    row_edges: frozenset
    column_edges: frozenset

    def row_components(self):
        return _components(self.n_rows, self.row_edges)

    def column_components(self):
        return _components(self.n_cols, self.column_edges)


def _components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _validate_rows(rows):
    rows = [tuple(int(x) for x in r) for r in rows]
    if not rows:
        raise DimensionError("need at least one incidence vector")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionError("incidence vectors must share a length")
    if any(x not in (0, 1) for r in rows for x in r):
        raise DimensionError("incidence vectors must be 0/1")
    if len(set(rows)) != len(rows):
        raise DimensionError("incidence vectors must be distinct")
    weights = {sum(r) for r in rows}
    if len(weights) != 1:
        raise DimensionError("incidence vectors must have a common weight")
    return rows


def exchange_graphs(rows) -> ExchangeGraphs:
    """Build both exchange graphs of an incidence collection."""
    rows = _validate_rows(rows)
    n = len(rows[0])
    row_edges = set()
    col_edges = set()
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            diff = [x - y for x, y in zip(rows[a], rows[b])]
            plus = [i for i, d in enumerate(diff) if d == 1]
            minus = [i for i, d in enumerate(diff) if d == -1]
            if len(plus) == 1 and len(minus) == 1:
                row_edges.add((a, b))
                col_edges.add(tuple(sorted((plus[0], minus[0]))))
    return ExchangeGraphs(
        n_rows=len(rows),
        n_cols=n,
        row_edges=frozenset(row_edges),
        column_edges=frozenset(col_edges),
    )


def reduced_determinant(rows):
    """Collapse X along its exchange components and report |det|.

    Rows are replaced by one representative per row component, columns are
    summed over each column component; the c x c result has the same |det|
    as X.  Requires linearly independent rows.
    """
    rows = _validate_rows(rows)
    n = len(rows[0])
    if len(rows) != n:
        raise DimensionError("determinant reduction needs a square collection")
    det = bareiss_det(rows)
    if det == 0:
        raise DimensionError("rows are linearly dependent; reduction skipped")
    graphs = exchange_graphs(rows)
    row_comps = graphs.row_components()
    col_comps = graphs.column_components()
    if len(row_comps) != len(col_comps):
        # Equal component counts need independent rows from a connected
        # matroid; a mismatch means the input broke that hypothesis.
        raise DimensionError(
            f"component counts differ: {len(row_comps)} row vs {len(col_comps)} column"
        )
    reps = [comp[0] for comp in row_comps]
    reduced = [
        tuple(sum(rows[rep][i] for i in comp) for comp in col_comps) for rep in reps
    ]
    reduced_det = bareiss_det(reduced)
    return reduced, abs(det), abs(reduced_det)


def is_unimodular_simplex(rows, M: Matroid) -> bool:
    """A full simplex on vertices of P_M is unimodular iff |det| = rank."""
    rows = _validate_rows(rows)
    if len(rows) != M.n:
        raise DimensionError(f"need exactly {M.n} incidence vectors")
    return abs(bareiss_det(rows)) == M.rank


def rank_component_relation(rows):
    """(rank of X, column components) for a row-connected collection.

    When the row graph is connected these satisfy
    rank(X) = n + 1 - #column components.
    """
    rows = _validate_rows(rows)
    graphs = exchange_graphs(rows)
    if len(graphs.row_components()) != 1:
        raise DimensionError("relation requires a connected row graph")
    return rational_rank(rows), len(graphs.column_components())


# Lattice-point counts and Todd values from the pipeline's kernels ---------
# The specialization of any term z^a / prod_j (1 - z^(b_j)), general
# denominators b_j included, over the kernels `genfun._exp_table` and
# `genfun._exp_gamma`: at k = 1 it counts the lattice points of a term sum,
# and `_exp_gamma` alone gives one Todd polynomial value.  Both check the
# kernels of `ehrhart_polynomial` against brute-force routes.


def _idot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _power_sums(values, m):
    """[P_1, P_2, P_4, ...] up to order m: P_k at index k // 2, the layout
    `_exp_gamma` reads."""
    return [sum(values)] + [sum(v ** (2 * i) for v in values) for i in range(1, m // 2 + 1)]


def todd_eval(m: int, xis):
    """td_m(xi_1..xi_s): coefficient of x^m in prod_j (x*xi_j / (1-exp(-x*xi_j))).

    The product is exp(sum_k alpha_k / A * P_k x^k), P_k the power sums of
    the xi; with xi_j = r_j / q it is gamma_m / (m! (A q)^m) of one integer
    exponential (`_exp_gamma`) of the power sums of the r_j, O(s m + m^2)
    operations.
    """
    if m < 0:
        raise DimensionError("order must be >= 0")
    xis = [Fraction(x) for x in xis]
    q = lcm(*[x.denominator for x in xis])
    rs = [x.numerator * (q // x.denominator) for x in xis]
    big, half, rows, _, _ = _exp_table(m)
    gamma = _exp_gamma(rows, 1, half * sum(rs), _power_sums(rs, m))
    return Fraction(gamma[m], factorial(m) * (big * q) ** m)


def generic_lambda_of_terms(terms):
    """Moment-curve vector not orthogonal to any denominator exponent, by
    a search over xi with the bound (n - 1) * (number of denominators,
    repeats counted) + 1: a generic vector for any integer terms, where
    the pipeline's lam = (0, 1, ..., n - 1) serves only exchange pairs."""
    denominators = {b for t in terms for b in t.denominators}
    if not denominators:
        return None
    n = len(next(iter(denominators)))
    xi = 0
    bound = (n - 1) * sum(len(t.denominators) for t in terms) + 1
    while xi <= bound:
        lam = tuple(xi**p for p in range(n))
        if all(_idot(lam, b) != 0 for b in denominators):
            return lam
        xi += 1
    raise InternalInconsistencyError("moment-curve search exhausted its bound")


def term_polynomial(term: GenFunTerm, lam):
    """The term's value at z = 1 in its k-th dilation z^(a + (k-1)v), as a
    polynomial in k: (nums, den) with coefficient m equal to nums[m] / den,
    den > 0, for any integer denominators: one integer exponential per
    term, as `genfun._cone_value` takes it per cell of a vertex cone."""
    s = len(term.denominators)
    if not s:
        return [1], 1  # a point vertex: one lattice point in every dilation
    dots = [_idot(lam, b) for b in term.denominators]
    if 0 in dots:
        raise DimensionError("lambda is not generic for this term")
    big, half, rows, binomials, den = _exp_table(s)
    sign = -1 if s % 2 else 1
    for d in dots:
        den *= d
    if den < 0:
        sign, den = -sign, -den
    va = _idot(lam, term.vertex)
    beta = big * (_idot(lam, term.numerator) - va) - half * sum(dots)
    gamma = _exp_gamma(rows, 1, beta, _power_sums(dots, s))
    step = big * va
    nums = []
    scale = sign
    for m in range(s + 1):
        nums.append(scale * binomials[m] * gamma[s - m])
        scale *= step
    return nums, den


def specialize_count(terms, lam=None) -> int:
    """Exact number of lattice points represented by the term sum: every
    term's dilation polynomial (`term_polynomial`) at k = 1.

    Independent of the chosen generic lambda; a non-integer total means the
    lambda was not generic or the terms are wrong, and raises.
    """
    if lam is None:
        lam = generic_lambda_of_terms(terms)
    total = Fraction(0)
    for t in terms:
        nums, den = term_polynomial(t, lam)
        total += Fraction(sum(nums), den)
    if total.denominator != 1:
        raise InternalInconsistencyError(f"specialization gave non-integer {total}")
    return int(total)


def count_lattice_points(M: Matroid) -> int:
    """#(P_M intersect Z^n) by specializing the generating function."""
    return specialize_count(matroid_genfun(M))


# Ehrhart interpolation and the subset-rank facet description -------------
# Counts at k = 0..dim fix the Ehrhart polynomial; membership in k * P_M is
# read off all 2^n - 1 subset rank constraints.


def interpolate_ehrhart(counts, dim: int):
    """Unique degree-dim polynomial through counts at k = 0, 1, 2, ...

    Over-determined tables must agree with the fit; disagreement signals an
    upstream bug and raises.
    Returns ascending coefficients as exact Fractions.
    """
    if len(counts) < dim + 1:
        raise DimensionError(f"need at least {dim + 1} counts for degree {dim}")
    xs = list(range(dim + 1))
    ys = [Fraction(c) for c in counts[: dim + 1]]
    # Newton divided differences, then expand to monomial coefficients.
    table = list(ys)
    for level in range(1, dim + 1):
        for i in range(dim, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * (dim + 1)
    basis = [Fraction(1)]  # expanding product (k - x_0)...(k - x_{i-1})
    for i in range(dim + 1):
        for j, b in enumerate(basis):
            coeffs[j] += table[i] * b
        new = [Fraction(0)] * (len(basis) + 1)
        for j, b in enumerate(basis):
            new[j] -= b * xs[i]
            new[j + 1] += b
        basis = new
    for k in range(dim + 1, len(counts)):
        if evaluate_polynomial(coeffs, k) != counts[k]:
            raise InternalInconsistencyError(
                f"count at k={k} disagrees with the degree-{dim} interpolant"
            )
    return tuple(coeffs)


def evaluate_polynomial(coeffs, k):
    """Horner evaluation with exact arithmetic."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


class PolytopeConstraints:
    """Facet-style description of the matroid polytope and its dilations.

    Membership in k * P: x >= 0, sum(x) = k * rank, and for every nonempty
    subset A, sum over A <= k * rank(A).
    """

    def __init__(self, M: Matroid, subset_ranks):
        self.matroid = M
        self.subset_ranks = subset_ranks  # dict frozenset -> rank

    def contains(self, x, k=1) -> bool:
        if len(x) != self.matroid.n:
            raise DimensionError("point dimension mismatch")
        xs = [Fraction(v) for v in x]
        if any(v < 0 for v in xs):
            return False
        if sum(xs) != k * self.matroid.rank:
            return False
        for subset, r in self.subset_ranks.items():
            if sum(xs[i] for i in subset) > k * r:
                return False
        return True


def polytope_constraints(M: Matroid) -> PolytopeConstraints:
    """All 2^n - 1 subset rank constraints."""
    ranks = {}
    for size in range(1, M.n + 1):
        for subset in combinations(range(M.n), size):
            ranks[frozenset(subset)] = M.rank_of(subset)
    return PolytopeConstraints(M, ranks)


# Sequence helpers ----------------------------------------------------------


# The oracles below read the same few tables many times; the library keeps
# none, so the test process memoizes them here.
composition_table = cache(bounded_composition_counts)


def composition_count(n: int, r: int, i: int) -> int:
    """Single entry of `bounded_composition_counts`, with out-of-range
    indices reading as 0."""
    if i < 0 or i > n * (r - 1):
        return 0
    return composition_table(n, r)[i]


def is_unimodal(vec) -> bool:
    """Weakly rises then weakly falls."""
    seq = list(vec)
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i == len(seq) - 1


# Sparse paving matroids: Ehrhart polynomials without a generic vector ------
# Ferroni (Matroids are not Ehrhart positive, Adv. Math. 2022; On the
# Ehrhart polynomial of minimal matroids, Discrete Comput. Geom. 2022): a
# sparse paving matroid M of rank r on n elements with lam circuit-
# hyperplanes has ehr(M, t) = ehr(U(r, n), t) - lam * ehr(T(r, n), t - 1),
# where T(r, n) is the minimal matroid, whose Ehrhart polynomial has a
# closed form of its own.  Neither uses the generating-function pipeline.


def minimal_matroid(r: int, n: int) -> Matroid:
    """T(r, n): columns e_1..e_r and n - r copies of (1, ..., 1).  Its bases
    are {0..r-1} and every single exchange of it, r(n - r) + 1 in all."""
    return vector_matroid([[int(i == j) for j in range(r)] + [1] * (n - r) for i in range(r)])


def sparse_paving_non_bases(M: Matroid):
    """The non-bases of M when M is sparse paving, else None.  M is sparse
    paving when its non-bases (r-subsets that are not bases) pairwise share
    at most r - 2 elements; they are then its circuit-hyperplanes."""
    r = M.rank
    non_bases = [set(s) for s in combinations(range(M.n), r) if not M.is_basis(s)]
    if any(len(a & b) > r - 2 for a, b in combinations(non_bases, 2)):
        return None
    return non_bases


def _binomial(x: int, m: int) -> Fraction:
    """C(x, m) as the polynomial x (x - 1) ... (x - m + 1) / m!, any integer x."""
    p = 1
    for i in range(m):
        p *= x - i
    return Fraction(p, factorial(m))


def minimal_matroid_count(r: int, n: int, t: int) -> Fraction:
    """ehr(T(r, n), t) = C(t + n - r, n - r) / C(n - 1, r - 1)
    * sum_(j < r) C(n - r - 1 + j, j) C(t + j, j), for 1 <= r < n."""
    total = sum(comb(n - r - 1 + j, j) * _binomial(t + j, j) for j in range(r))
    return _binomial(t + n - r, n - r) * total / comb(n - 1, r - 1)


def sparse_paving_count(M: Matroid, t: int) -> Fraction:
    """ehr(M, t) of a sparse paving matroid by Ferroni's relation."""
    non_bases = sparse_paving_non_bases(M)
    if non_bases is None:
        raise DimensionError(f"{M} is not sparse paving")
    r, n = M.rank, M.n
    if r in (0, n):
        return Fraction(1)  # P_M is a point
    uniform = evaluate_polynomial(ehrhart_uniform(n, r), t)
    return uniform - len(non_bases) * minimal_matroid_count(r, n, t - 1)
