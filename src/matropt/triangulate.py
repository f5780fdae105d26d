"""Placing triangulations of point sets, and half-open unimodular cells of
the vertex cones of matroid polytopes.

The placing loop takes integer points, as the bases' incidence vectors
are; a rational point set is the caller's to scale.  It only ever queries
hull-boundary facets, where visibility drops out of a strict sign test of
one facet functional of the facet's cell.  A new cell takes its
functionals from the cell it is glued to, through the pencil of
hyperplanes on each shared ridge (the beneath-beyond step of De Loera,
Rambau and Santos, Triangulations, 2010, section 4.3); the only
eliminations are one per growth of the affine hull.  The test suite
checks visibility against an exact LP test, the cells against a loop that
takes one kernel elimination per boundary facet, and each cell's volume
against the gcd of its maximal minors.  Points are placed in the order
given; a caller that wants another order permutes its list.

A vertex cone of a matroid polytope is carried as exchange pairs: its
generators are the differences e_j - e_i of the adjacent bases B - i + j.
It is the cone over the root polytope of its exchange graph (Postnikov,
Permutohedra, associahedra, and beyond, IMRN 2009, section 12), so
`tree_cells` reads its cells off spanning forests, as tuples of generator
indices; they are those of the placing triangulation in generator order
(De Loera, Rambau and Santos, Triangulations, 2010, section 4.3), as the
tests check.  The walk from cell to cell keeps each forest as bit masks
and updates them across every swap; reduced costs and half-open flags are
read off the masks of the tree paths, and every cell records the swap
that found it.

Half-open flags follow the coordinate sign rule of Koeppe & Verdoolaege
(Computing parametric rational generating functions with a primal Barvinok
algorithm, Electron. J. Combin. 2008): for a generic y in the relative
interior of the cone, facet j of a simplicial cell is strict exactly when
the j-th coordinate of y in the cell's own generators is negative.  The
cones take y = sum_k 2^k g_k, generic in every tree cell.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from math import gcd
from operator import mul

from .errors import DimensionError, InternalInconsistencyError
from .linalg import _extend, _null_vector, bareiss_det, integer_rank
from .matroid import _root_paths, _spanning_forest


def tangent_cone(M, basis):
    """Vertex cone of the matroid polytope at e_B as its exchange pairs, one
    per adjacent basis B - i + j in the order of `M.adjacent_bases`: i
    leaves B, j enters it, and the pair's generator is e_j - e_i.  The
    pairs are the matroid's own (`Matroid._exchange_pairs`); no neighbour
    is built.
    """
    b = tuple(sorted(basis))
    if not M.is_basis(b):
        raise DimensionError(f"{b} is not a basis")
    return tuple(M._exchange_pairs(b))


def placing_triangulation(points):
    """Incremental triangulation of a list of integer points, placing them
    in the order given.

    Returns (cells, volumes): cells are sorted tuples of point indices, each
    affinely independent and of the common maximal dimension, and
    volumes[i] > 0 is the |det| of the edge vectors of cells[i] in the
    hull's pivot coordinates.  A point that extends the affine hull cones
    over every existing cell; otherwise it is attached to every boundary
    facet visible from it.  A point in the current hull, a repeated point
    among them, sees nothing and stays unused.  The result depends on the
    order of the list.  Each new point has the largest index placed so far,
    so it goes last in every cell it joins, and its functional last in the
    cell's table.

    Coordinates must be ints, else DimensionError: a caller with rational
    points scales them by the lcm of their denominators first, an affine
    map that keeps the cells and scales the volumes.  An integer echelon
    of difference rows tracks the affine hull; its pivot columns give a
    projection that is injective on the hull.  A cell carries its d + 1
    facet functionals in those coordinates: l_p, one per vertex p, is the
    primitive integer affine functional that vanishes on the facet opposite
    p and is positive at p.  Candidate facets always lie on the
    hull boundary, where visibility is a strict supporting-hyperplane sign
    test: the boundary facet F of the cell F + {o} is visible from v exactly
    when l_o(v) < 0.  The cell F + {v} then takes l'_v = -l_o and, for q in
    F, the member of the pencil of l_o and l_q (the hyperplanes through the
    ridge F - q) that vanishes at v, l_q(v) l_o - l_o(v) l_q.  When v leaves
    the hull, one elimination gives the functional h that vanishes on the
    old hull and is positive at v; each cell C + {v} takes l'_v = h and, for
    p in C, h(v) l_p - l_p(v) h.  Every functional is scaled to be
    primitive.  Until the hull is full every cell keeps its functionals;
    from then on a cell's functionals go with its last boundary facet.
    A facet seen twice leaves the boundary for good: every other facet of a
    later cell contains that cell's new point.
    """
    if not points:
        raise DimensionError("need at least one point")
    for p in points:
        if not all(isinstance(x, int) for x in p):
            raise DimensionError(f"placing takes int coordinates, got the point {p}")
    origin = points[0]
    full = integer_rank([[a - b for a, b in zip(p, origin)] for p in points])
    # Every cell's functionals, while the hull can still grow; a point's one
    # functional is the constant 1.
    cells, tables = [(0,)], [[(1,)]]
    echelon: list = []  # (pivot column, row): reduced difference rows of the hull
    # boundary facet -> (position of its opposite vertex, its cell's functionals),
    # in first-occurrence order
    boundary: dict = {}
    for idx, v in enumerate(points[1:], 1):
        qv = [v[c] for c, _ in echelon]
        if _extend(echelon, [a - b for a, b in zip(v, origin)]) is None:
            qv += [v[echelon[-1][0]], 1]  # the new pivot column comes last
            h = _facet_normal([points[i] for i in cells[0]], v, [c for c, _ in echelon])
            hv = sum(map(mul, h, qv))
            grown_cells, grown_tables = [], []
            for cell, table in zip(cells, tables):
                grown = []
                for lp in table:
                    ext = (*lp[:-1], 0, lp[-1])  # no term in the new pivot column
                    grown.append(_pencil(ext, sum(map(mul, ext, qv)), h, hv))
                grown.append(h)
                grown_cells.append(cell + (idx,))
                grown_tables.append(grown)
            cells, tables = grown_cells, grown_tables
            boundary = {}
            _add_facets(boundary, cells, tables)
            if len(echelon) == full:
                tables = None
            continue
        qv.append(1)
        new, grown_tables = [], []
        for f, (k, table) in boundary.items():
            lo = table[k]
            s = sum(map(mul, lo, qv))
            if s < 0:
                grown = [_pencil(lo, s, lq, sum(map(mul, lq, qv)))
                         for lq in table[:k] + table[k + 1:]]
                grown.append(tuple([-a for a in lo]))
                new.append(f + (idx,))
                grown_tables.append(grown)
        cells += new
        if tables is not None:
            tables += grown_tables
        _add_facets(boundary, new, grown_tables)
    cols = [c for c, _ in echelon]
    volumes = []
    for cell in cells:
        base = points[cell[0]]
        volume = abs(bareiss_det([[points[i][c] - base[c] for c in cols] for i in cell[1:]]))
        if volume == 0:
            raise InternalInconsistencyError("placing produced a degenerate cell")
        volumes.append(volume)
    return cells, volumes


def _add_facets(boundary, cells, tables):
    """Count the facets of new cells: a facet seen once is on the boundary
    (kept with the position of its cell's opposite vertex and the cell's
    functionals), one seen again is interior and leaves it."""
    for cell, table in zip(cells, tables):
        last = len(cell) - 1
        for k, f in enumerate(combinations(cell, last)):
            if f in boundary:
                del boundary[f]
            else:
                boundary[f] = (last - k, table)  # combinations drop the last vertex first


def _facet_normal(facet, opposite, cols):
    """The facet functional of a hull facet in projected coordinates: the
    primitive integer affine functional (coefficients, then the constant)
    that vanishes on the facet and is positive at the opposite vertex of the
    facet's cell.  Its linear part is a kernel vector of the edge matrix."""
    q = [[p[c] for c in cols] for p in facet]
    nu = _null_vector([[a - b for a, b in zip(row, q[0])] for row in q[1:]], len(cols))
    if nu is None:
        raise InternalInconsistencyError("boundary facet does not span a hyperplane")
    offset = sum(a * b for a, b in zip(nu, q[0]))
    ref = sum(a * opposite[c] for a, c in zip(nu, cols)) - offset
    if ref == 0:
        raise InternalInconsistencyError("degenerate cell: opposite vertex on the facet")
    return _primitive([*nu, -offset] if ref > 0 else [-a for a in nu] + [offset])


def _pencil(a, av, b, bv):
    """The member bv a - av b of the pencil of functionals a and b, which
    vanishes at the point where they take the values av and bv, scaled to
    be primitive."""
    return _primitive([bv * x - av * y for x, y in zip(a, b)])


def _primitive(row):
    """A nonzero integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return tuple([a // g for a in row])


def tree_cells(pairs):
    """Half-open unimodular cells partitioning the vertex cone with these
    exchange pairs, one per spanning forest of its exchange graph, as
    triples (bits, strict, origin): the cell's generator indices in cone
    order, those of its facets that are strict, and the swap the walk found
    it by.  origin is (p, e, f) when the cell is cells[p] with generator e
    swapped out and f swapped in, p always an earlier position, and None
    for the first cell.

    Generator k, e_j - e_i for the exchange pair (i, j), is an edge i -> j
    of height 2^k of the bipartite exchange graph G on the elements of the
    pairs.  The cells of the regular triangulation for these heights (the
    placing triangulation in generator order) are spanning forests of G,
    unimodular as network matrices are totally unimodular.  Kruskal by
    generator index gives the first cell, and the walk visits the others
    breadth-first.  The cell across the facet of tree edge e swaps e for
    the non-tree edge f crossing its cut against e with the least reduced
    cost 2^f - (pi_head - pi_tail), pi the tree's potentials
    (pi_head - pi_tail = 2^k on tree edge k); with no such edge the facet
    is on the boundary.  A cell lists its neighbours by the index of the
    tree edge they swap out.

    A forest is rooted, each component at its least vertex for the whole
    walk, and kept as masks: anc[v] holds the edges from v up to its root,
    so the tree path of f = a -> b is anc[a] ^ anc[b], and `heads` the tree
    edges whose lower end is their head.  A new cell takes the masks of
    the cell it was found from and changes only the subtree that moves
    across the swap (the network simplex update of Ahuja, Magnanti and
    Orlin, Network Flows, 1993, ch. 11).  The path masks give the rest:
    with `back` the edges that the path of f runs from head to tail,
    pi_b - pi_a is (path ^ back) - back, both masks read as sums of powers
    of two; neither mask depends on the roots.  The new cell keeps the swap
    as its origin, so that a consumer can update what it sums over a cell's
    generators from the cell's origin, with one generator out and one in,
    instead of summing it afresh.

    Facet j of a cell is strict exactly when coordinate j of
    y = sum_k 2^k g_k is negative.  In a tree cell g_f is the signed sum of
    the generators on its fundamental cycle, -1 on `back`, so the
    coordinate of tree edge e is 2^e plus +-2^f for every non-tree f whose
    path holds e: a signed sum of distinct powers of two, never zero, with
    the sign of its highest term.  So e is strict exactly when the highest
    such f exceeds e and runs e from head to tail.
    """
    if not pairs:
        return [((), (), None)]
    n, m = 1 + max(map(max, pairs)), len(pairs)
    forest = _spanning_forest(n, pairs, range(m))  # Kruskal by index: the minimum spanning forest
    first = sum(1 << k for k in forest)
    cells = [[first, tuple(forest), *_root_paths(n, pairs, forest), None]]
    seen = {first}
    out = []
    for index, cell in enumerate(cells):  # grows while it is read: breadth-first
        tree, bits, anc, heads, origin = cell
        crossing, inner = [], 0
        for f in range(m):
            if tree >> f & 1:
                continue
            a, b = pairs[f]
            up_a, up_b = anc[a], anc[b]
            path = up_a ^ up_b  # the tree path from a to b
            back = path & ((up_a & heads) | (up_b & ~heads))  # run from head to tail
            cost = (1 << f) + back - (path ^ back)  # 2^f - (pi_b - pi_a)
            if cost <= 0:
                raise InternalInconsistencyError(
                    "a tree with a non-positive reduced cost is not a cell")
            crossing.append((cost, f, path, back))
            inner |= back
        strict = decided = 0
        for _, f, path, back in reversed(crossing):  # the highest f decides its path's signs
            strict |= back & ~decided & ((1 << f) - 1)
            decided |= path
        out.append((bits, tuple(_bits(strict)), origin))
        best, left = {}, inner
        crossing.sort()  # least reduced cost, then least index
        for cost, f, path, back in crossing:
            new = back & left
            if new:
                left ^= new
                for e in _bits(new):
                    best[e] = f
                if not left:
                    break
        for e in _bits(inner):
            f = best[e]
            child = tree ^ (1 << e) ^ (1 << f)
            if child not in seen:
                seen.add(child)
                cells.append(_swap(cell, index, child, e, f, pairs))
        cell[2] = None  # no later cell is found from this one
    if [strict for _, strict, _ in out].count(()) != 1:
        raise InternalInconsistencyError("y is interior to the cone, so one cell must be closed")
    return out


def _bits(mask):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _swap(cell, index, child, e, f, pairs):
    """[child, bits, anc, heads, (index, e, f)] of the cell that swaps tree
    edge e of cells[index] for f = a -> b, e on the tree path of f.

    The subtree below e, the vertices whose root path holds e, hangs from
    f by its end x of f: the path from v to x, f and the path above f's
    other end y make its new root path.  The edges from x up to e turn
    around.  The swap keeps every component's vertices, so its root stays.
    """
    tree, bits, anc, heads, _ = cell
    bits = list(bits)
    bits.remove(e)
    insort(bits, f)
    a, b = pairs[f]
    x, y = (a, b) if anc[a] >> e & 1 else (b, a)
    lower = pairs[e][1] if heads >> e & 1 else pairs[e][0]
    heads ^= (anc[x] ^ anc[lower]) | (heads & 1 << e)  # turn x's path to e around, drop e
    if x == b:
        heads |= 1 << f
    ax, above = anc[x], anc[y] | 1 << f
    anc = [u ^ ax | above if u >> e & 1 else u for u in anc]
    return [child, tuple(bits), anc, heads, (index, e, f)]
