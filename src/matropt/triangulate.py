"""Placing triangulations of point sets and vertex cones, plus half-open
decompositions of the resulting simplicial cones.

The placing loop works in integers and only ever queries hull-boundary
facets, where visibility drops out of a strict supporting-hyperplane sign
test against a cached facet normal; the test suite checks it against an
exact LP visibility test.  Insertion order is recorded with every result so
a run can be replayed.

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
from .linalg import _extend, _null_vector, bareiss_det, max_minor_gcd, solve_in_row_space


@dataclass(frozen=True)
class Cone:
    """Affine cone apex + integer generators (extremal rays)."""

    apex: tuple
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if all(x == 0 for x in g):
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

    Generators are the edge directions toward the adjacent bases, which are
    differences of two unit vectors by the exchange structure.
    """
    from .matroid import incidence_vector

    b = tuple(sorted(basis))
    apex = incidence_vector(b, M.n)
    gens = []
    for nb in M.adjacent_bases(b):
        vec = incidence_vector(nb, M.n)
        gens.append(tuple(a - c for a, c in zip(vec, apex)))
    return Cone(apex=apex, generators=tuple(gens))


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


def join_to_apex(cells, apex_index):
    """Restrict a triangulation to cells coned from one vertex.

    Keeps each boundary facet not containing the apex and joins it to the
    apex, so that every maximal cell of the result is incident to it.
    """
    boundary: dict = {}
    _add_facets(boundary, set(), cells)
    return [tuple(sorted(f + (apex_index,))) for f in boundary if apex_index not in f]


def cone_triangulation(cone: Cone, order=None):
    """Triangulate a vertex cone into simplicial cones sharing its apex.

    Two placing passes: triangulate conv({0} u generators), then join the
    origin to the boundary facets away from it.  Each resulting cell is a
    tuple of generators; for elementary (unit-difference) generators every
    cell is unimodular over the cone's lattice, which `genfun_of_halfopen`
    checks once per cell of the Ehrhart pipeline.
    """
    gens = [tuple(g) for g in cone.generators]
    if not gens:
        return [()]
    dim = len(gens[0])
    pts = [tuple([0] * dim)] + gens
    cells, _ = placing_triangulation(pts, order=order)
    star = join_to_apex(cells, 0)
    return [tuple(pts[i] for i in c if i != 0) for c in star]


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

    Strictly positive combinations of all the rays stay inside the cone, so
    its own boundary facets keep weak inequalities and only internal walls
    are opened; powers of t weight the rays, and t grows until y has no
    zero coordinate in any cell.  Each coordinate is a nonzero polynomial
    in t of degree below len(rays), so the search terminates.  Returns y
    and its coordinates per cell.
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
    the cell's generators is negative (the Koeppe-Verdoolaege sign rule),
    which keeps the lattice points of each shared wall on exactly one side.
    y must have no zero coordinate in any cell and sit in the cone's
    relative interior (so boundary facets never open); a suitable vector is
    constructed when not supplied, and a supplied one is checked: a generic
    interior y is strictly inside exactly one cell.
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
        # The all-weak cell is the one whose interior holds y; zero or many
        # such cells means y was outside the cone and the flags would not
        # partition it.
        raise DimensionError("y must lie in the relative interior of the cone")
    return out
