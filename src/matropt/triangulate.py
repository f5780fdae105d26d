"""Placing triangulations of point sets, and half-open unimodular cells of
the vertex cones of matroid polytopes.

The placing loop works in integers and only ever queries hull-boundary
facets, where visibility drops out of a strict supporting-hyperplane sign
test against a cached facet normal; the test suite checks it against an
exact LP visibility test.  Insertion order is recorded with every result so
a run can be replayed.

A vertex cone is the cone over the root polytope of its exchange graph
(Postnikov, Permutohedra, associahedra, and beyond, IMRN 2009, section
12), so `tree_cells` reads its cells off spanning forests; they are those
of the placing triangulation in generator order (De Loera, Rambau and
Santos, Triangulations, 2010, section 4.3), as the tests check.

Half-open flags follow the coordinate sign rule of Koeppe & Verdoolaege
(Computing parametric rational generating functions with a primal Barvinok
algorithm, Electron. J. Combin. 2008): for a generic y in the relative
interior of the cone, facet j of a simplicial cell is strict exactly when
the j-th coordinate of y in the cell's own generators is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import DimensionError, InternalInconsistencyError
from .linalg import _extend, _null_vector, bareiss_det, max_minor_gcd


@dataclass(frozen=True)
class Cone:
    """Affine cone apex + integer generators (extremal rays)."""

    apex: tuple
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not any(g):
                raise DimensionError("cone generators must be nonzero")


@dataclass(frozen=True)
class HalfOpenSimplicialCone:
    """Simplicial cone with a subset of facets made strict.

    Points are apex + sum(lambda_j * b_j) with lambda_j >= 0, strictly
    positive for j in strict_indices (0-based positions into generators).
    """

    apex: tuple
    generators: tuple
    strict_indices: frozenset


def tangent_cone(M, basis) -> Cone:
    """Vertex cone of the matroid polytope at e_B.

    Generators are the edge directions toward the adjacent bases B - i + j,
    the differences e_j - e_i of two unit vectors.
    """
    from .matroid import incidence_vector

    b = tuple(sorted(basis))
    gens = []
    for nb in M.adjacent_bases(b):
        g = [0] * M.n
        for e in nb:
            g[e] += 1
        for e in b:
            g[e] -= 1
        gens.append(tuple(g))
    return Cone(apex=incidence_vector(b, M.n), generators=tuple(gens))


def placing_triangulation(points, order=None):
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


def cell_lattice_determinant(generators) -> int:
    """|det| of a simplicial cell over Z^n intersected with its span.

    Equals the gcd of the maximal minors of the generator matrix (the last
    determinantal divisor), so 1 certifies a lattice basis.
    """
    if not generators:
        return 1
    g = max_minor_gcd([tuple(map(int, v)) for v in generators])
    if g == 0:
        raise DimensionError("cell generators are linearly dependent")
    return g


def tree_cells(cone: Cone):
    """Half-open unimodular cells partitioning a vertex cone of a matroid
    polytope, one per spanning forest cell of its exchange graph.

    Generator k of the cone at e_B is e_j - e_i for an exchange B - i + j:
    an edge i -> j, of height 2^k, of the bipartite exchange graph G.  The
    cells of the regular triangulation for these heights (the placing
    triangulation in generator order) are spanning forests of G, unimodular
    as network matrices are totally unimodular.  Kruskal by generator index
    gives the first cell.  The cell across the facet of tree edge e swaps e
    for the non-tree edge crossing its cut against e with the least reduced
    cost 2^f - (pi_head - pi_tail), pi the tree's integer potentials; with
    no such edge the facet is on the boundary.

    Each cell lists its generators in cone order, and its facet j is
    strict exactly when coordinate j of y = sum_k t^k g_k is negative, t
    being the least integer >= 1 that leaves no zero coordinate in any
    cell.  In a tree cell g_k has coordinates 0 and +-1 (its fundamental
    cycle), so at t = 2 every coordinate is a signed sum of distinct powers
    of two, never zero.
    """
    apex = tuple(cone.apex)
    gens = cone.generators
    if not gens:
        return [HalfOpenSimplicialCone(apex, (), frozenset())]
    ends = [_exchange_edge(g) for g in gens]
    if {i for i, _ in ends} & {j for _, j in ends}:
        raise DimensionError("generators must all point from one side of a bipartition")
    n = len(apex)
    first, comp = 0, list(range(n))
    for k, (i, j) in enumerate(ends):  # Kruskal by index: the minimum spanning forest
        if comp[i] != comp[j]:
            first |= 1 << k
            comp = [comp[i] if c == comp[j] else c for c in comp]
    forests, queue = {first: None}, [first]
    for tree in queue:  # grows while it is read: breadth-first over the cells
        bits = _bits(tree)
        rows = _rooted_forest(bits, ends)
        forests[tree] = (bits, rows)
        for nb in _neighbours(tree, rows, ends, n):
            if nb not in forests:
                forests[nb] = None
                queue.append(nb)
    cells = list(forests.values())
    y = _supply(ends, n, 1)
    coords = []
    for bits, rows in cells:
        coords.append(_tree_coordinates(rows, y, bits))
        if 0 in coords[-1]:  # t = 1 puts y on a wall: take t = 2 throughout
            y = _supply(ends, n, 2)
            coords = [_tree_coordinates(rows, y, bits) for bits, rows in cells]
            break
    out = []
    for (bits, _), x in zip(cells, coords):
        if 0 in x:
            raise InternalInconsistencyError("y = sum 2^k g_k lies on a cell wall")
        strict = frozenset(j for j, c in enumerate(x) if c < 0)
        out.append(HalfOpenSimplicialCone(apex, tuple(gens[k] for k in bits), strict))
    if sum(1 for h in out if not h.strict_indices) != 1:
        raise InternalInconsistencyError("y is interior to the cone, so one cell must be closed")
    return out


def _exchange_edge(g):
    """(tail, head) of a generator e_head - e_tail."""
    support = [p for p, x in enumerate(g) if x]
    if len(support) != 2 or sorted(g[p] for p in support) != [-1, 1]:
        raise DimensionError("tree cells need generators of the form e_j - e_i")
    i, j = support
    return (i, j) if g[i] < 0 else (j, i)


def _bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _supply(ends, n, t):
    """y = sum_k t^k g_k for the generators g_k = e_j - e_i with ends (i, j)."""
    y = [0] * n
    w = 1
    for i, j in ends:
        y[i] -= w
        y[j] += w
        w *= t
    return y


def _rooted_forest(bits, ends):
    """Rows (vertex, parent, edge, +1 if the vertex is the edge's head else
    -1) of the forest with edges `bits` in preorder, so every vertex follows
    its parent; roots are left out."""
    adj: dict = {}
    for k in bits:
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


def _neighbours(tree, rows, ends, n):
    """Cells across the facets of a tree cell, by one network-simplex ratio
    test per tree edge.  Non-tree edge f = a -> b crosses the cut of tree
    edge e against e exactly when the tree path from a to b runs through e
    from head to tail, with reduced cost 2^f - (pi_b - pi_a) > 0."""
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
            if depth[u] >= depth[w]:  # climbing from a: head to tail when u is the head
                u, e, sign = up[u]
                backward = sign > 0
            else:  # descending to b: head to tail when w is the tail
                w, e, sign = up[w]
                backward = sign < 0
            if backward and (e not in best or cost < best[e][0]):
                best[e] = (cost, f)
    return [tree ^ (1 << e) ^ (1 << f) for e, (_, f) in best.items()]


def _tree_coordinates(rows, y, bits):
    """Coordinates of y in the generators `bits` of a tree cell, in cone order:
    the tree flow with supplies y.  The flow on a vertex's parent edge is
    the net supply of its subtree, signed by the edge's direction, so
    pruning leaves first gives every coordinate in O(n) integer steps."""
    net = list(y)
    flow = {}
    for v, p, k, sign in reversed(rows):
        net[p] += net[v]
        flow[k] = sign * net[v]
    return [flow[k] for k in bits]
