"""Placing triangulations of point sets, and half-open unimodular cells of
the vertex cones of matroid polytopes.

The placing loop works in integers and only ever queries hull-boundary
facets, where visibility drops out of a strict supporting-hyperplane sign
test against a cached facet normal; the test suite checks it against an
exact LP visibility test.  Insertion order is recorded with every result so
a run can be replayed.

A vertex cone of a matroid polytope is carried as exchange pairs: its
generators are the differences e_j - e_i of the adjacent bases B - i + j.
It is the cone over the root polytope of its exchange graph (Postnikov,
Permutohedra, associahedra, and beyond, IMRN 2009, section 12), so
`tree_cells` reads its cells off spanning forests, as tuples of generator
indices; they are those of the placing triangulation in generator order
(De Loera, Rambau and Santos, Triangulations, 2010, section 4.3), as the
tests check.  The walk from cell to cell keeps each forest as bit masks
and updates them, its potentials and its flows across every swap.

Half-open flags follow the coordinate sign rule of Koeppe & Verdoolaege
(Computing parametric rational generating functions with a primal Barvinok
algorithm, Electron. J. Combin. 2008): for a generic y in the relative
interior of the cone, facet j of a simplicial cell is strict exactly when
the j-th coordinate of y in the cell's own generators is negative.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

from .errors import DimensionError, InternalInconsistencyError
from .linalg import _extend, _null_vector, bareiss_det, max_minor_gcd


@dataclass(frozen=True)
class Cone:
    """Vertex cone of a matroid polytope at a vertex e_B.

    `apex` is e_B, and generator k is e_j - e_i for the k-th exchange pair
    (i, j) of `pairs`: i leaves B and j enters it.
    """

    apex: tuple
    pairs: tuple

    def __post_init__(self):
        n = len(self.apex)
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < n and self.apex[i] == 1 and self.apex[j] == 0):
                raise DimensionError(f"({i}, {j}) is not an exchange pair at the apex {self.apex}")


def tangent_cone(M, basis) -> Cone:
    """Vertex cone of the matroid polytope at e_B, one exchange pair per
    adjacent basis B - i + j in the order of `M.adjacent_bases`."""
    from .matroid import incidence_vector

    b = tuple(sorted(basis))
    inside = set(b)
    total = sum(b)
    pairs = []
    for nb in M.adjacent_bases(b):
        for j in nb:
            if j not in inside:
                break
        pairs.append((total - sum(nb) + j, j))  # i = sum(B) - sum(B - i + j) + j
    return Cone(apex=incidence_vector(b, M.n), pairs=tuple(pairs))


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
    polytope, one per spanning forest of its exchange graph, as pairs
    (bits, strict) of generator indices: the cell's generators in cone
    order, and those of its facets that are strict.

    Generator k, e_j - e_i for the exchange pair (i, j), is an edge i -> j
    of height 2^k of the bipartite exchange graph G.  The cells of the
    regular triangulation for these heights (the placing triangulation in
    generator order) are spanning forests of G, unimodular as network
    matrices are totally unimodular.  Kruskal by generator index gives the
    first cell, and the walk visits the others breadth-first.  The cell
    across the facet of tree edge e swaps e for the non-tree edge f
    crossing its cut against e with the least reduced cost
    2^f - (pi_head - pi_tail), pi the tree's integer potentials; with no
    such edge the facet is on the boundary.  A cell lists its neighbours in
    the order in which walks along the tree paths of the non-tree edges, by
    index, each from both ends with the deeper end first, meet their e.

    A forest is rooted, each component at the tail of its lowest edge, and
    kept as masks: anc[v] holds the edges from v up to its root, so the
    tree path of f = a -> b is anc[a] ^ anc[b], and `heads` the tree edges
    whose lower end is their head.  A new cell takes the masks, potentials
    and flows of the cell it was found from and changes only the subtree
    that moves across the swap, and the root when its component's lowest
    edge changed (the network simplex update of Ahuja, Magnanti and Orlin,
    Network Flows, 1993, ch. 11).

    Facet j of a cell is strict exactly when coordinate j of
    y_t = sum_k t^k g_k is negative, t being the least integer >= 1 that
    leaves no zero coordinate in any cell.  The coordinates are the tree's
    flows with supplies y_t.  Flows are linear in the supplies, so the walk
    carries one list, the flows of y_1 + M y_2 with M > 2m: no flow of y_1
    exceeds m, so it is the residue mod M, and the sign of the whole is
    that of the flow of y_2.  A swap changes them only around the
    fundamental cycle of f.  In a tree cell g_k has coordinates 0 and +-1
    (its fundamental cycle), so at t = 2 every coordinate is a signed sum
    of distinct powers of two, never zero.
    """
    pairs = cone.pairs
    if not pairs:
        return [((), ())]
    n, m = len(cone.apex), len(pairs)
    label, first, adj = list(range(n)), 0, [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):  # Kruskal by index: the minimum spanning forest
        if label[i] != label[j]:
            first |= 1 << k
            old, new = label[j], label[i]
            label = [new if c == old else c for c in label]
            adj[i].append((j, k, 1))
            adj[j].append((i, k, -1))
    component = {}  # label -> mask of the component's edges
    for k, (i, _) in enumerate(pairs):
        component[label[i]] = component.get(label[i], 0) | 1 << k
    members = {c: [v for v in range(n) if label[v] == c] for c in component}
    half = 1 << m.bit_length()  # above every flow of y_1
    modulus = 2 * half
    cells = [_first_cell(first, adj, pairs, component.values(), modulus)]
    seen = {first}
    for cell in cells:  # grows while it is read: breadth-first over the cells
        tree, _, anc, pi, heads, _ = cell
        crossing, order, covered = [], [], 0
        for f in range(m):
            if tree >> f & 1:
                continue
            a, b = pairs[f]
            cost = (1 << f) - pi[b] + pi[a]
            if cost <= 0:
                raise InternalInconsistencyError(
                    "a tree with a non-positive reduced cost is not a cell")
            up_a, up_b = anc[a], anc[b]
            path = up_a ^ up_b  # the tree path from a to b
            back = path & ((up_a & heads) | (up_b & ~heads))  # run from head to tail
            crossing.append((cost, f, path, back))
            new = back & ~covered
            if new & (new - 1):  # deeper lower end first, a's side first at equal depth
                order += sorted(_bits(new), key=lambda e: (
                    -anc[pairs[e][1] if heads >> e & 1 else pairs[e][0]].bit_count(),
                    not up_a >> e & 1))
            elif new:
                order.append(new.bit_length() - 1)
            covered |= new
        best = {}
        crossing.sort()  # least reduced cost, then least index
        for cost, f, path, back in crossing:
            new = back & covered
            if new:
                covered ^= new
                for e in _bits(new):
                    best[e] = (f, path, back)
                if not covered:
                    break
        for e in order:
            f, path, back = best[e]
            child = tree ^ (1 << e) ^ (1 << f)
            if child not in seen:
                seen.add(child)
                c = label[pairs[f][0]]
                cells.append(_swap(cell, child, e, f, pairs, path, back, component[c], members[c]))
        cell[2] = cell[3] = None  # only the bits and flows are needed from here on
    bits = [cell[1] for cell in cells]
    rows = [[cell[5][k] for k in cell[1]] for cell in cells]
    if all(map(modulus.__rmod__, chain.from_iterable(rows))):  # t = 1: the residues are its flows
        strict = [tuple(k for k, x in zip(b, row) if x % modulus > half)
                  for b, row in zip(bits, rows)]
    else:
        if min(map(abs, chain.from_iterable(rows))) < half:
            raise InternalInconsistencyError("y = sum 2^k g_k lies on a cell wall")
        strict = [tuple(k for k, x in zip(b, row) if x < 0) for b, row in zip(bits, rows)]
    if strict.count(()) != 1:
        raise InternalInconsistencyError("y is interior to the cone, so one cell must be closed")
    return list(zip(bits, strict))


def _first_cell(tree, adj, pairs, components, modulus):
    """[tree, bits, anc, pi, heads, flows] of the Kruskal forest, given as
    (neighbour, edge, +1 if the neighbour is the edge's head else -1) per
    vertex, every component rooted at the tail of its lowest edge.

    bits lists the tree edges, lowest first; anc[v] masks the edges from v
    up to its root and pi[v] is its potential, pi_head - pi_tail = 2^k on
    tree edge k; heads masks the tree edges whose lower end is their head.
    The flows, indexed by edge, are those of the supplies
    y_1 + modulus * y_2: the flow on a vertex's parent edge is the net
    supply of its subtree, signed by the edge's direction, so pruning
    leaves first gives every flow.
    """
    n = len(adj)
    up = [None] * n
    order = []
    for mask in components:
        stack = [pairs[(mask & -mask).bit_length() - 1][0]]
        while stack:
            v = stack.pop()
            for w, k, sign in adj[v]:
                if up[v] is None or up[v][1] != k:
                    up[w] = (v, k, sign)
                    order.append(w)
                    stack.append(w)
    anc, pi, heads = [0] * n, [0] * n, 0
    for v in order:  # parents first
        p, k, sign = up[v]
        anc[v] = anc[p] | 1 << k
        pi[v] = pi[p] + sign * (1 << k)
        if sign > 0:
            heads |= 1 << k
    net = [0] * n
    for k, (i, j) in enumerate(pairs):
        supply = 1 + (modulus << k)
        net[i] -= supply
        net[j] += supply
    flows = [0] * len(pairs)
    for v in reversed(order):  # children first
        p, k, sign = up[v]
        net[p] += net[v]
        flows[k] = sign * net[v]
    return [tree, tuple(_bits(tree)), anc, pi, heads, flows]


def _bits(mask):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _swap(cell, child, e, f, pairs, path, back, component, members):
    """[child, bits, anc, pi, heads, flows] of the cell that swaps tree
    edge e for f = a -> b.

    `path` masks the tree path from a to b and `back` those of its edges
    that it runs from head to tail, e among them.  With g_f = sum_k c_k g_k
    over the path (c_k = -1 on `back`, else +1) the flows move by x_e c_k
    and f takes -x_e.  The subtree below e, the vertices whose root path
    holds e, hangs from f by its end x of f: the path from v to x, f and
    the path above f's other end y make its new root path, and its
    potentials move by one constant.  The edges from x up to e turn around.
    When the component's lowest edge changed, it is re-rooted at that
    edge's tail: every root path there gains or loses the new root's path.
    """
    tree, bits, anc, pi, heads, flows = cell
    bits = list(bits)
    bits.remove(e)
    insort(bits, f)
    flows = list(flows)
    through = flows[e]
    for k in _bits(path & ~back):
        flows[k] += through
    for k in _bits(back):
        flows[k] -= through
    flows[f] = -through
    a, b = pairs[f]
    x, y, sign = (a, b, -1) if anc[a] >> e & 1 else (b, a, 1)
    lower = pairs[e][1] if heads >> e & 1 else pairs[e][0]
    heads ^= (anc[x] ^ anc[lower]) | (heads & 1 << e)  # turn x's path to e around, drop e
    if sign > 0:
        heads |= 1 << f
    ax, above = anc[x], anc[y] | 1 << f
    shift = pi[y] + sign * (1 << f) - pi[x]
    anc, pi = list(anc), list(pi)
    for v in members:
        if anc[v] >> e & 1:
            anc[v] = anc[v] ^ ax | above
            pi[v] += shift
    old, new = tree & component, child & component
    root = pairs[(new & -new).bit_length() - 1][0]
    if root != pairs[(old & -old).bit_length() - 1][0]:
        flip = anc[root]
        heads ^= flip
        for v in members:
            anc[v] ^= flip
    return [child, tuple(bits), anc, pi, heads, flows]
