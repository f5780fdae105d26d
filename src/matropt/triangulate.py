"""Placing triangulations of point sets and vertex cones, plus half-open
decompositions of the resulting simplicial cones.

The placing loop only ever queries hull-boundary facets, where visibility
drops out of a strict supporting-hyperplane sign test; the general exact LP
test it is checked against is `oracles.visible`.  Insertion order is
recorded with every result so a run can be replayed.

Half-open flags follow the coordinate sign rule of Koeppe & Verdoolaege
(Computing parametric rational generating functions with a primal Barvinok
algorithm, Electron. J. Combin. 2008): for a generic y in the relative
interior of the cone, facet j of a simplicial cell is strict exactly when
the j-th coordinate of y in the cell's own generators is negative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DimensionError, InternalInconsistencyError
from .linalg import (
    affinely_independent,
    max_minor_gcd,
    rational_kernel_basis,
    solve_in_row_space,
)


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

    Candidate facets always lie on the current hull boundary, where
    visibility reduces to a strict supporting-hyperplane sign test; that
    exact shortcut replaces the general visibility LP in this inner loop.
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    if not pts:
        raise DimensionError("need at least one point")
    order = tuple(range(len(pts))) if order is None else tuple(order)
    if sorted(order) != list(range(len(pts))):
        raise DimensionError("order must be a permutation of the point indices")
    cells: list = []
    placed: list = []
    origin = None
    aff_rows: list = []  # independent direction vectors of the affine hull
    coord: dict = {}  # point index -> coordinates in aff_rows (len grows)
    for idx in order:
        v = pts[idx]
        if not placed:
            placed.append(idx)
            origin = v
            coord[idx] = ()
            cells = [(idx,)]
            continue
        if any(v == pts[j] for j in placed):
            continue  # duplicate of an already-placed point: unused
        diff = tuple(a - b for a, b in zip(v, origin))
        c = solve_in_row_space(aff_rows, diff)
        if c is None:
            cells = [tuple(sorted(cell + (idx,))) for cell in cells]
            aff_rows.append(diff)
            for j in coord:
                coord[j] = coord[j] + (Fraction(0),)
            coord[idx] = (Fraction(0),) * (len(aff_rows) - 1) + (Fraction(1),)
        else:
            coord[idx] = c
            counts = Counter()
            for cell in cells:
                for f in combinations(cell, len(cell) - 1):
                    counts[f] += 1
            new = []
            for f, mult in counts.items():
                if mult != 1:
                    continue  # interior wall: never visible
                if _beyond_boundary_facet(coord, placed, f, idx):
                    new.append(tuple(sorted(f + (idx,))))
            cells = cells + new
        placed.append(idx)
    for c in cells:
        if not affinely_independent([pts[j] for j in c]):
            raise InternalInconsistencyError("placing produced a degenerate cell")
    return [tuple(c) for c in cells], order


def _beyond_boundary_facet(coord, placed, facet, v_idx) -> bool:
    """Strict side test of a point against a hull-boundary facet.

    All points carry exact coordinates in the hull's direction basis; the
    facet's hyperplane supports the hull, so visibility is exactly "strictly
    on the side opposite the polytope".
    """
    base = coord[facet[0]]
    dim = len(base)
    facet_rows = [
        tuple(a - b for a, b in zip(coord[i], base)) for i in facet[1:]
    ]
    if not facet_rows:
        if dim != 1:
            raise InternalInconsistencyError("facet dimension mismatch")
        normals = [(Fraction(1),)]
    else:
        normals = rational_kernel_basis(facet_rows)
    if len(normals) != 1:
        raise InternalInconsistencyError("boundary facet does not span a hyperplane")
    nu = normals[0]

    def side(j):
        return sum(a * (b - c) for a, b, c in zip(nu, coord[j], base))

    ref = next((s for j in placed if (s := side(j)) != 0), None)
    if ref is None:
        raise InternalInconsistencyError("degenerate hull: no point off the facet")
    sv = side(v_idx)
    return sv != 0 and (sv > 0) != (ref > 0)


def join_to_apex(cells, apex_index):
    """Restrict a triangulation to cells coned from one vertex.

    Keeps each boundary facet not containing the apex and joins it to the
    apex, so that every maximal cell of the result is incident to it.
    """
    counts = Counter()
    for c in cells:
        for f in combinations(c, len(c) - 1):
            counts[f] += 1
    out = []
    for f, mult in counts.items():
        if mult == 1 and apex_index not in f:
            out.append(tuple(sorted(f + (apex_index,))))
    return out


def cone_triangulation(cone: Cone, order=None):
    """Triangulate a vertex cone into simplicial cones sharing its apex.

    Two placing passes: triangulate conv({0} u generators), then join the
    origin to the boundary facets away from it.  Each resulting cell is a
    tuple of generators; for elementary (unit-difference) generators every
    cell is unimodular over the cone's lattice, which is asserted.
    """
    gens = [tuple(g) for g in cone.generators]
    if not gens:
        return [()]
    dim = len(gens[0])
    pts = [tuple([0] * dim)] + gens
    cells, _ = placing_triangulation(pts, order=order)
    star = join_to_apex(cells, 0)
    out = []
    for c in star:
        out.append(tuple(pts[i] for i in c if i != 0))
    for cell in out:
        if cell_lattice_determinant(cell) != 1:
            raise InternalInconsistencyError("non-unimodular cell from elementary cone")
    return out


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


def half_open_contains(cone: HalfOpenSimplicialCone, point) -> bool:
    """Exact membership in a half-open simplicial cone."""
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(point, cone.apex))
    if not cone.generators:
        return all(x == 0 for x in diff)
    lam = solve_in_row_space(cone.generators, diff)
    if lam is None:
        return False
    for j, l in enumerate(lam):
        if j in cone.strict_indices:
            if l <= 0:
                return False
        elif l < 0:
            return False
    return True
